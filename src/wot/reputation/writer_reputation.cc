#include "wot/reputation/writer_reputation.h"

#include <algorithm>

#include "wot/util/check.h"

namespace wot {

std::vector<double> ComputeWriterReputations(
    const CategoryView& view, const std::vector<double>& review_quality,
    const ReputationOptions& options) {
  WOT_CHECK_EQ(review_quality.size(), view.num_reviews());
  // Reviews are walked in ascending local order, so each writer's sum adds
  // its reviews' qualities in that order (see CategoryView).
  std::vector<double> sum(view.num_writers(), 0.0);
  std::vector<uint32_t> count(view.num_writers(), 0);
  for (size_t lr = 0; lr < view.num_reviews(); ++lr) {
    const uint32_t lw = view.WriterOfReview(lr);
    sum[lw] += review_quality[lr];
    ++count[lw];
  }
  std::vector<double> out(view.num_writers());
  for (size_t lw = 0; lw < view.num_writers(); ++lw) {
    const double n = static_cast<double>(count[lw]);
    double rep = sum[lw] / n;
    if (options.use_experience_discount) {
      rep *= 1.0 - 1.0 / (n + 1.0);
    }
    out[lw] = std::clamp(rep, 0.0, 1.0);
  }
  return out;
}

}  // namespace wot
