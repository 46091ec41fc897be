// Writer reputation (paper eq. 3): the experience-discounted mean quality
// of the reviews a writer produced in one category.
//
//     rep(u_w) = (sum_j quality(r_j) / n_w) * (1 - 1/(n_w + 1))
//
// where the sum ranges over the writer's reviews in the category and n_w is
// their count. The sums are accumulated in one pass over the slice's
// reviews in ascending local order, which is each writer's own review
// order, so no per-writer grouping is needed.
#ifndef WOT_REPUTATION_WRITER_REPUTATION_H_
#define WOT_REPUTATION_WRITER_REPUTATION_H_

#include <vector>

#include "wot/community/category_view.h"
#include "wot/reputation/options.h"

namespace wot {

/// \brief Computes eq. 3 for every local writer in \p view, given the
/// converged review qualities. Returns reputation[lw] in [0, 1].
std::vector<double> ComputeWriterReputations(
    const CategoryView& view, const std::vector<double>& review_quality,
    const ReputationOptions& options);

}  // namespace wot

#endif  // WOT_REPUTATION_WRITER_REPUTATION_H_
