#include "wot/reputation/engine.h"

#include <algorithm>
#include <numeric>

#include "wot/reputation/riggs.h"
#include "wot/reputation/writer_reputation.h"
#include "wot/util/check.h"
#include "wot/util/parallel_for.h"

namespace wot {

Status ValidateReputationOptions(const ReputationOptions& options) {
  if (options.tolerance <= 0.0) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  return Status::OK();
}

Result<ReputationResult> ComputeReputations(
    const Dataset& dataset, const CategoryIndex& index,
    const ReputationOptions& options) {
  WOT_RETURN_IF_ERROR(ValidateReputationOptions(options));

  const size_t num_users = dataset.num_users();
  const size_t num_categories = dataset.num_categories();

  ReputationResult result;
  result.expertise = DenseMatrix(num_users, num_categories, 0.0);
  result.rater_reputation = DenseMatrix(num_users, num_categories, 0.0);
  result.review_quality.assign(dataset.num_reviews(), 0.0);
  result.convergence.assign(num_categories, ConvergenceInfo{});

  std::vector<CategoryView> views;
  views.reserve(num_categories);
  for (size_t c = 0; c < num_categories; ++c) {
    views.emplace_back(CategoryId(static_cast<uint32_t>(c)));
  }
  std::vector<size_t> all(num_categories);
  std::iota(all.begin(), all.end(), size_t{0});
  RecomputeCategories(dataset, index, all, options, views, &result);
  return result;
}

size_t RecomputeCategories(const Dataset& dataset, const CategoryIndex& index,
                           std::span<const size_t> categories,
                           const ReputationOptions& options,
                           std::span<CategoryView> views,
                           ReputationResult* result) {
  WOT_CHECK_EQ(views.size(), dataset.num_categories());
  // Category sizes are skewed, so hand the largest out first: the last
  // worker to finish then holds a small category, not the biggest one.
  std::vector<size_t> order(categories.begin(), categories.end());
  auto num_ratings = [&](size_t c) {
    return index.RatingsIn(CategoryId(static_cast<uint32_t>(c))).size();
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return num_ratings(a) > num_ratings(b);
  });

  // Each worker catches up its own slice and writes to disjoint columns
  // (its own category) and to the review-quality slots of its own
  // category's reviews, so no locking is needed and results are
  // independent of scheduling.
  const size_t num_users = dataset.num_users();
  std::vector<size_t> view_ratings(order.size(), 0);
  ParallelFor(
      order.size(),
      [&](size_t k) {
        const size_t c = order[k];
        CategoryView& view = views[c];
        view.CatchUp(dataset, index);
        view_ratings[k] = view.num_ratings();
        RiggsResult riggs = RiggsFixedPoint(view, options);
        std::vector<double> writer_rep =
            ComputeWriterReputations(view, riggs.review_quality, options);

        for (size_t u = 0; u < num_users; ++u) {
          result->expertise.At(u, c) = 0.0;
          result->rater_reputation.At(u, c) = 0.0;
        }
        for (size_t lw = 0; lw < view.num_writers(); ++lw) {
          result->expertise.At(view.writer_id(lw).index(), c) =
              writer_rep[lw];
        }
        for (size_t lx = 0; lx < view.num_raters(); ++lx) {
          result->rater_reputation.At(view.rater_id(lx).index(), c) =
              riggs.rater_reputation[lx];
        }
        for (size_t lr = 0; lr < view.num_reviews(); ++lr) {
          result->review_quality[view.review_id(lr).index()] =
              riggs.review_quality[lr];
        }
        result->convergence[c] = riggs.convergence;
      },
      options.num_threads);
  return std::accumulate(view_ratings.begin(), view_ratings.end(),
                         size_t{0});
}

}  // namespace wot
