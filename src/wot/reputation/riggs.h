// The Riggs reputation fixed point (paper eq. 1 + eq. 2), computed inside
// one CategoryView.
//
// Review quality (eq. 1):
//     quality(r_j) = sum_i rep(u_i) * rho_ij / sum_i rep(u_i)
// over the raters u_i of review r_j — a reputation-weighted mean of the
// received ratings.
//
// Rater reputation (eq. 2):
//     rep(u_i) = (1 - sum_j |quality(r_j) - rho_ij| / n_i)
//                * (1 - 1/(n_i + 1))
// where n_i is the number of reviews u_i rated in the category: raters are
// reliable when they consistently rate close to the converged quality, and
// inexperience is discounted by 1 - 1/(n+1) = n/(n+1).
//
// The two equations are mutually recursive; RiggsFixedPoint iterates them
// from "all raters fully reliable" until the max quality change falls below
// options.tolerance (or max_iterations is hit).
//
// Each iteration is one pass over the slice's review-major runs: a review's
// eq.-1 quality is computed, then each of its ratings adds |quality - rho|
// to its rater's deviation sum, and eq. 2 finishes per rater after the
// pass. Reviews are walked in ascending local order, so every rater's sum
// adds its terms in ascending local-review order -- the order a rater-side
// grouping would list them in -- and the result is bit-identical to two
// separate sweeps (see CategoryView). The eq.-2 sum of an iteration reads
// that iteration's qualities and the eq.-1 weights read the previous
// iteration's reputations, exactly as in the two-sweep formulation.
//
// Edge-case semantics (the paper is silent; documented in DESIGN.md §6):
//  * a review with no ratings has quality 0;
//  * if every rater of a review currently has reputation 0, the quality
//    falls back to the unweighted mean of its ratings;
//  * a category with no ratings yields all-zero rater reputations.
#ifndef WOT_REPUTATION_RIGGS_H_
#define WOT_REPUTATION_RIGGS_H_

#include <vector>

#include "wot/community/category_view.h"
#include "wot/reputation/options.h"

namespace wot {

/// \brief Converged state of one category.
struct RiggsResult {
  /// quality[lr] for each local review, in [0, 1].
  std::vector<double> review_quality;
  /// reputation[lx] for each local rater, in [0, 1].
  std::vector<double> rater_reputation;
  ConvergenceInfo convergence;
};

/// \brief Runs the eq. 1 / eq. 2 fixed point on one category.
RiggsResult RiggsFixedPoint(const CategoryView& view,
                            const ReputationOptions& options);

/// \brief One eq.-1 sweep: recomputes review qualities from fixed rater
/// reputations. Exposed for unit tests and the ablation bench.
void ComputeReviewQualities(const CategoryView& view,
                            const std::vector<double>& rater_reputation,
                            bool use_rater_weighting,
                            std::vector<double>* review_quality);

/// \brief One eq.-2 sweep: recomputes rater reputations from fixed review
/// qualities. Exposed for unit tests and the ablation bench.
void ComputeRaterReputations(const CategoryView& view,
                             const std::vector<double>& review_quality,
                             bool use_experience_discount,
                             std::vector<double>* rater_reputation);

}  // namespace wot

#endif  // WOT_REPUTATION_RIGGS_H_
