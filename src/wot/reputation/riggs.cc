#include "wot/reputation/riggs.h"

#include <algorithm>
#include <cmath>

#include "wot/util/check.h"

namespace wot {

namespace {

// Eq. 1 for one local review, weighting by \p rater_reputation.
double ReviewQuality(const CategoryView& view, size_t lr,
                     const std::vector<double>& rater_reputation,
                     bool use_rater_weighting) {
  auto raters = view.RatersOfReview(lr);
  auto values = view.ValuesOfReview(lr);
  if (values.empty()) {
    return 0.0;  // unrated review: quality 0 by convention
  }
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (size_t k = 0; k < values.size(); ++k) {
    double w = use_rater_weighting ? rater_reputation[raters[k]] : 1.0;
    weighted_sum += w * values[k];
    weight_total += w;
  }
  if (weight_total > 0.0) {
    return weighted_sum / weight_total;
  }
  // All raters currently have zero reputation; fall back to the
  // unweighted mean rather than dividing by zero.
  double sum = 0.0;
  for (double value : values) {
    sum += value;
  }
  return sum / static_cast<double>(values.size());
}

// The fused pass: walks the reviews in ascending local order, takes each
// review's quality from \p quality_of(lr), and adds |quality - rho| of each
// of its ratings to the rater's eq.-2 deviation sum. Then finishes eq. 2
// into \p rater_reputation. quality_of runs before any reputation changes.
template <typename QualityOf>
void SweepRaterReputations(const CategoryView& view, QualityOf quality_of,
                           bool use_experience_discount,
                           std::vector<double>* deviation,
                           std::vector<double>* rater_reputation) {
  deviation->assign(view.num_raters(), 0.0);
  double* const sums = deviation->data();
  for (size_t lr = 0; lr < view.num_reviews(); ++lr) {
    const double quality = quality_of(lr);
    auto raters = view.RatersOfReview(lr);
    auto values = view.ValuesOfReview(lr);
    for (size_t k = 0; k < values.size(); ++k) {
      sums[raters[k]] += std::fabs(quality - values[k]);
    }
  }
  rater_reputation->resize(view.num_raters());
  for (size_t lx = 0; lx < view.num_raters(); ++lx) {
    const double n = static_cast<double>(view.RatingCountOfRater(lx));
    double rep = 1.0 - (*deviation)[lx] / n;
    if (use_experience_discount) {
      rep *= 1.0 - 1.0 / (n + 1.0);
    }
    (*rater_reputation)[lx] = std::clamp(rep, 0.0, 1.0);
  }
}

}  // namespace

void ComputeReviewQualities(const CategoryView& view,
                            const std::vector<double>& rater_reputation,
                            bool use_rater_weighting,
                            std::vector<double>* review_quality) {
  WOT_CHECK_EQ(rater_reputation.size(), view.num_raters());
  review_quality->resize(view.num_reviews());
  for (size_t lr = 0; lr < view.num_reviews(); ++lr) {
    (*review_quality)[lr] =
        ReviewQuality(view, lr, rater_reputation, use_rater_weighting);
  }
}

void ComputeRaterReputations(const CategoryView& view,
                             const std::vector<double>& review_quality,
                             bool use_experience_discount,
                             std::vector<double>* rater_reputation) {
  WOT_CHECK_EQ(review_quality.size(), view.num_reviews());
  std::vector<double> deviation;
  SweepRaterReputations(
      view, [&](size_t lr) { return review_quality[lr]; },
      use_experience_discount, &deviation, rater_reputation);
}

RiggsResult RiggsFixedPoint(const CategoryView& view,
                            const ReputationOptions& options) {
  RiggsResult result;
  // Start from "every rater fully reliable": the first eq.-1 sweep then
  // produces plain means, which eq. 2 refines.
  result.rater_reputation.assign(view.num_raters(), 1.0);
  result.review_quality.assign(view.num_reviews(), 0.0);

  std::vector<double> deviation;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    double delta = 0.0;
    SweepRaterReputations(
        view,
        [&](size_t lr) {
          const double quality =
              ReviewQuality(view, lr, result.rater_reputation,
                            options.use_rater_weighting);
          delta = std::max(delta,
                           std::fabs(quality - result.review_quality[lr]));
          result.review_quality[lr] = quality;
          return quality;
        },
        options.use_experience_discount, &deviation,
        &result.rater_reputation);
    result.convergence.iterations = iter + 1;
    result.convergence.final_delta = delta;
    if (delta < options.tolerance) {
      result.convergence.converged = true;
      break;
    }
    // Without rater weighting eq. 1 no longer depends on eq. 2, so a
    // second sweep cannot change anything.
    if (!options.use_rater_weighting && iter >= 1) {
      result.convergence.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace wot
