// The multi-category reputation engine: runs the Riggs fixed point and
// writer aggregation in every category (in parallel) and assembles the
// Users_Category matrices the trust derivation consumes.
//
// Output matrices are U x C:
//   expertise  E[i][c] = writer reputation of user i in category c (eq. 3);
//                        the paper's Users_Category Expertise matrix.
//   rater_reputation[i][c] = rater reputation of user i in category c
//                        (eq. 2); used by the Table-2 experiment.
// Entries for users with no activity in a category are 0.
#ifndef WOT_REPUTATION_ENGINE_H_
#define WOT_REPUTATION_ENGINE_H_

#include <span>
#include <vector>

#include "wot/community/category_index.h"
#include "wot/community/category_view.h"
#include "wot/community/dataset.h"
#include "wot/linalg/dense_matrix.h"
#include "wot/reputation/options.h"
#include "wot/util/result.h"

namespace wot {

/// \brief Everything Step 1 produces.
struct ReputationResult {
  /// E: U x C writer expertise (eq. 3).
  DenseMatrix expertise;
  /// U x C rater reputation (eq. 2).
  DenseMatrix rater_reputation;
  /// quality[review] in [0, 1] for every review (eq. 1), converged.
  std::vector<double> review_quality;
  /// Per-category convergence diagnostics (indexed by category).
  std::vector<ConvergenceInfo> convergence;
};

/// \brief InvalidArgument unless \p options can drive the fixed point
/// (a positive tolerance and iteration cap).
Status ValidateReputationOptions(const ReputationOptions& options);

/// \brief Runs Step 1 over all categories of \p dataset; \p index must
/// describe \p dataset.
///
/// Categories are independent; they are processed concurrently on
/// options.num_threads workers, each over a transient slice built through
/// the same catch-up as the incremental engine's resident ones.
/// Deterministic regardless of thread count.
Result<ReputationResult> ComputeReputations(const Dataset& dataset,
                                            const CategoryIndex& index,
                                            const ReputationOptions& options);

/// \brief Recomputes Step 1 for \p categories only, overwriting their
/// expertise and rater-reputation columns, their reviews' qualities and
/// their convergence entries in \p result, which must already have
/// \p dataset's shape. Every other entry is left alone. \p views holds one
/// slice per category of \p dataset; each recomputed category's slice is
/// first caught up with \p dataset (CategoryView::CatchUp), so it must
/// have been caught up only with earlier versions of it. Categories run
/// largest-first on options.num_threads workers, each worker on its own
/// slice; the result does not depend on the order. Returns the number of
/// ratings Step 1 swept: the ratings the recomputed slices hold.
size_t RecomputeCategories(const Dataset& dataset, const CategoryIndex& index,
                           std::span<const size_t> categories,
                           const ReputationOptions& options,
                           std::span<CategoryView> views,
                           ReputationResult* result);

}  // namespace wot

#endif  // WOT_REPUTATION_ENGINE_H_
