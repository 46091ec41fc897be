#include "wot/core/affiliation.h"

#include <algorithm>

#include "wot/util/check.h"

namespace wot {

void ComputeAffiliationRow(const CategoryIndex& index, UserId user,
                           std::span<double> out) {
  const size_t num_categories = index.num_categories();
  WOT_CHECK_EQ(out.size(), num_categories);
  std::fill(out.begin(), out.end(), 0.0);

  uint32_t max_rated = 0;
  uint32_t max_written = 0;
  for (size_t c = 0; c < num_categories; ++c) {
    CategoryId category(static_cast<uint32_t>(c));
    max_rated = std::max(max_rated, index.RateCount(user, category));
    max_written = std::max(max_written, index.WriteCount(user, category));
  }
  if (max_rated == 0 && max_written == 0) {
    return;  // inactive user: all-zero affiliation row
  }
  for (size_t c = 0; c < num_categories; ++c) {
    CategoryId category(static_cast<uint32_t>(c));
    double rated_term =
        max_rated > 0 ? static_cast<double>(index.RateCount(user,
                                                            category)) /
                            static_cast<double>(max_rated)
                      : 0.0;
    double written_term =
        max_written > 0
            ? static_cast<double>(index.WriteCount(user, category)) /
                  static_cast<double>(max_written)
            : 0.0;
    out[c] = (rated_term + written_term) / 2.0;
  }
}

DenseMatrix ComputeAffiliationMatrix(const CategoryIndex& index) {
  const size_t num_users = index.num_users();
  DenseMatrix affiliation(num_users, index.num_categories(), 0.0);
  for (size_t u = 0; u < num_users; ++u) {
    ComputeAffiliationRow(index, UserId(static_cast<uint32_t>(u)),
                          affiliation.Row(u));
  }
  return affiliation;
}

}  // namespace wot
