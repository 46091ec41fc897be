#include "wot/reputation/incremental.h"

#include <algorithm>
#include <utility>

namespace wot {

IncrementalReputationEngine::IncrementalReputationEngine(
    ReputationOptions options)
    : options_(options) {}

void IncrementalReputationEngine::MarkDerived(const Dataset& dataset) {
  known_users_ = dataset.num_users();
  known_categories_ = dataset.num_categories();
  known_reviews_ = dataset.num_reviews();
  known_ratings_ = dataset.num_ratings();
  initialized_ = true;
}

Status IncrementalReputationEngine::FullRebuild(const Dataset& dataset,
                                                const CategoryIndex& index) {
  WOT_RETURN_IF_ERROR(ValidateReputationOptions(options_));
  // The derived state of the empty dataset: Update then finds every
  // category new, catches every slice up from empty and sizes the result.
  *this = IncrementalReputationEngine(options_);
  initialized_ = true;
  return Update(dataset, index);
}

Status IncrementalReputationEngine::Seed(const Dataset& dataset,
                                         const ReputationResult& result) {
  if (result.expertise.rows() != dataset.num_users() ||
      result.expertise.cols() != dataset.num_categories() ||
      result.rater_reputation.rows() != dataset.num_users() ||
      result.rater_reputation.cols() != dataset.num_categories() ||
      result.review_quality.size() != dataset.num_reviews() ||
      result.convergence.size() != dataset.num_categories()) {
    return Status::InvalidArgument(
        "seeded reputation result does not match the dataset's shape");
  }
  result_ = result;
  views_.clear();
  for (size_t c = 0; c < dataset.num_categories(); ++c) {
    views_.emplace_back(CategoryId(static_cast<uint32_t>(c)));
  }
  last_recomputed_.clear();
  last_view_ratings_ = 0;
  MarkDerived(dataset);
  return Status::OK();
}

Status IncrementalReputationEngine::Update(const Dataset& dataset,
                                           const CategoryIndex& index,
                                           size_t* categories_recomputed) {
  if (!initialized_) {
    if (categories_recomputed != nullptr) {
      *categories_recomputed = dataset.num_categories();
    }
    return FullRebuild(dataset, index);
  }
  if (dataset.num_users() < known_users_ ||
      dataset.num_categories() < known_categories_ ||
      dataset.num_reviews() < known_reviews_ ||
      dataset.num_ratings() < known_ratings_) {
    return Status::FailedPrecondition(
        "IncrementalReputationEngine requires append-only dataset "
        "evolution");
  }

  // Dirty: brand new, or the category's newest review or rating is past
  // the watermark (its lists ascend, so only the last entries matter).
  std::vector<size_t> dirty;
  for (size_t c = 0; c < dataset.num_categories(); ++c) {
    const CategoryId category(static_cast<uint32_t>(c));
    auto reviews = index.ReviewsIn(category);
    auto ratings = index.RatingsIn(category);
    if (c >= known_categories_ ||
        (!reviews.empty() && reviews.back().index() >= known_reviews_) ||
        (!ratings.empty() && ratings.back() >= known_ratings_)) {
      dirty.push_back(c);
    }
  }
  if (categories_recomputed != nullptr) {
    *categories_recomputed = dirty.size();
  }

  // Grow the matrices for new users / categories, preserving old entries.
  const size_t num_users = dataset.num_users();
  const size_t num_categories = dataset.num_categories();
  if (num_users != result_.expertise.rows() ||
      num_categories != result_.expertise.cols()) {
    DenseMatrix expertise(num_users, num_categories, 0.0);
    DenseMatrix rater(num_users, num_categories, 0.0);
    for (size_t u = 0; u < result_.expertise.rows(); ++u) {
      std::ranges::copy(result_.expertise.Row(u), expertise.Row(u).begin());
      std::ranges::copy(result_.rater_reputation.Row(u),
                        rater.Row(u).begin());
    }
    result_.expertise = std::move(expertise);
    result_.rater_reputation = std::move(rater);
  }
  result_.review_quality.resize(dataset.num_reviews(), 0.0);
  result_.convergence.resize(num_categories, ConvergenceInfo{});
  for (size_t c = views_.size(); c < num_categories; ++c) {
    views_.emplace_back(CategoryId(static_cast<uint32_t>(c)));
  }

  last_view_ratings_ =
      RecomputeCategories(dataset, index, dirty, options_, views_, &result_);
  last_recomputed_ = std::move(dirty);
  MarkDerived(dataset);
  return Status::OK();
}

}  // namespace wot
