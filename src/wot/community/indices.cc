#include "wot/community/indices.h"

#include "wot/util/check.h"

namespace wot {

namespace {

/// Counting-sort grouping: given item count and a key extractor, fills
/// offsets (size num_groups+1) and a permutation of item indices grouped by
/// key. Stable within a group (insertion order preserved).
template <typename KeyFn>
void GroupBy(size_t num_items, size_t num_groups, KeyFn key,
             std::vector<size_t>* offsets,
             std::vector<size_t>* permutation) {
  offsets->assign(num_groups + 1, 0);
  for (size_t i = 0; i < num_items; ++i) {
    ++(*offsets)[key(i) + 1];
  }
  for (size_t g = 1; g <= num_groups; ++g) {
    (*offsets)[g] += (*offsets)[g - 1];
  }
  permutation->resize(num_items);
  std::vector<size_t> cursor(offsets->begin(), offsets->end() - 1);
  for (size_t i = 0; i < num_items; ++i) {
    (*permutation)[cursor[key(i)]++] = i;
  }
}

}  // namespace

DatasetIndices::DatasetIndices(const Dataset& dataset)
    : num_users_(dataset.num_users()),
      num_categories_(dataset.num_categories()) {
  const auto& reviews = dataset.reviews();
  const auto& ratings = dataset.ratings();

  std::vector<size_t> perm;

  // Ratings by review.
  GroupBy(
      ratings.size(), reviews.size(),
      [&](size_t i) { return ratings[i].review.index(); },
      &review_rating_offsets_, &perm);
  review_ratings_.resize(ratings.size());
  for (size_t pos = 0; pos < perm.size(); ++pos) {
    const auto& rating = ratings[perm[pos]];
    review_ratings_[pos] = {rating.rater, rating.value};
  }

  // Ratings by rater.
  GroupBy(
      ratings.size(), num_users_,
      [&](size_t i) { return ratings[i].rater.index(); },
      &user_rating_offsets_, &perm);
  user_ratings_.resize(ratings.size());
  for (size_t pos = 0; pos < perm.size(); ++pos) {
    const auto& rating = ratings[perm[pos]];
    user_ratings_[pos] = {rating.review, rating.value};
  }

  // Reviews by writer.
  GroupBy(
      reviews.size(), num_users_,
      [&](size_t i) { return reviews[i].writer.index(); },
      &user_review_offsets_, &perm);
  user_reviews_.resize(reviews.size());
  for (size_t pos = 0; pos < perm.size(); ++pos) {
    user_reviews_[pos] = reviews[perm[pos]].id;
  }

  // Reviews by category.
  GroupBy(
      reviews.size(), num_categories_,
      [&](size_t i) { return reviews[i].category.index(); },
      &category_review_offsets_, &perm);
  category_reviews_.resize(reviews.size());
  for (size_t pos = 0; pos < perm.size(); ++pos) {
    category_reviews_[pos] = reviews[perm[pos]].id;
  }
}

std::span<const DatasetIndices::RatingRef> DatasetIndices::RatingsOfReview(
    ReviewId review) const {
  WOT_DCHECK(review.index() + 1 < review_rating_offsets_.size() + 1);
  size_t begin = review_rating_offsets_[review.index()];
  size_t end = review_rating_offsets_[review.index() + 1];
  return {review_ratings_.data() + begin, end - begin};
}

std::span<const DatasetIndices::RatedReviewRef> DatasetIndices::RatingsByUser(
    UserId rater) const {
  size_t begin = user_rating_offsets_[rater.index()];
  size_t end = user_rating_offsets_[rater.index() + 1];
  return {user_ratings_.data() + begin, end - begin};
}

std::span<const ReviewId> DatasetIndices::ReviewsByUser(UserId writer) const {
  size_t begin = user_review_offsets_[writer.index()];
  size_t end = user_review_offsets_[writer.index() + 1];
  return {user_reviews_.data() + begin, end - begin};
}

std::span<const ReviewId> DatasetIndices::ReviewsInCategory(
    CategoryId category) const {
  size_t begin = category_review_offsets_[category.index()];
  size_t end = category_review_offsets_[category.index() + 1];
  return {category_reviews_.data() + begin, end - begin};
}

}  // namespace wot
