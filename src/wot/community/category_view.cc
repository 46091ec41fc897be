#include "wot/community/category_view.h"

#include <limits>

#include "wot/util/check.h"

namespace wot {

CategoryView::CategoryView(const Dataset& dataset, const CategoryIndex& index,
                           CategoryId category)
    : category_(category) {
  WOT_CHECK(category.valid());
  WOT_CHECK_EQ(index.num_users(), dataset.num_users());
  WOT_CHECK_EQ(index.num_categories(), dataset.num_categories());

  auto reviews = index.ReviewsIn(category);
  review_ids_.assign(reviews.begin(), reviews.end());
  const size_t num_reviews = review_ids_.size();

  // Global user -> local writer / rater, filled in first-seen order.
  constexpr uint32_t kUnseen = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> local_of_user(dataset.num_users(), kUnseen);

  review_writer_.resize(num_reviews);
  for (size_t lr = 0; lr < num_reviews; ++lr) {
    UserId writer = dataset.review(review_ids_[lr]).writer;
    uint32_t& local = local_of_user[writer.index()];
    if (local == kUnseen) {
      local = static_cast<uint32_t>(writer_ids_.size());
      writer_ids_.push_back(writer);
    }
    review_writer_[lr] = local;
  }
  for (UserId writer : writer_ids_) {
    local_of_user[writer.index()] = kUnseen;
  }

  // Review-side ratings: a stable counting sort of the category's
  // append-ordered ratings by local review, so each review's ratings keep
  // ascending rating-id order. local_rater holds the global rater until
  // the next pass numbers raters in first-seen order.
  const std::vector<ReviewRating>& ratings = dataset.ratings();
  auto rating_ids = index.RatingsIn(category);
  std::vector<uint32_t> rating_review(rating_ids.size());
  review_rating_offsets_.assign(num_reviews + 1, 0);
  for (size_t k = 0; k < rating_ids.size(); ++k) {
    const uint32_t lr =
        index.PositionInCategory(ratings[rating_ids[k]].review);
    rating_review[k] = lr;
    ++review_rating_offsets_[lr + 1];
  }
  for (size_t lr = 1; lr <= num_reviews; ++lr) {
    review_rating_offsets_[lr] += review_rating_offsets_[lr - 1];
  }
  review_ratings_.resize(rating_ids.size());
  {
    std::vector<size_t> cursor(review_rating_offsets_.begin(),
                               review_rating_offsets_.end() - 1);
    for (size_t k = 0; k < rating_ids.size(); ++k) {
      const ReviewRating& rating = ratings[rating_ids[k]];
      review_ratings_[cursor[rating_review[k]]++] = {rating.rater.value(),
                                                      rating.value};
    }
  }
  for (ReviewSideRating& rr : review_ratings_) {
    uint32_t& local = local_of_user[rr.local_rater];
    if (local == kUnseen) {
      local = static_cast<uint32_t>(rater_ids_.size());
      rater_ids_.push_back(UserId(rr.local_rater));
    }
    rr.local_rater = local;
  }

  // Rater-side grouping (counting sort over the review-side array).
  rater_rating_offsets_.assign(rater_ids_.size() + 1, 0);
  for (const auto& rr : review_ratings_) {
    ++rater_rating_offsets_[rr.local_rater + 1];
  }
  for (size_t i = 1; i < rater_rating_offsets_.size(); ++i) {
    rater_rating_offsets_[i] += rater_rating_offsets_[i - 1];
  }
  rater_ratings_.resize(review_ratings_.size());
  {
    std::vector<size_t> cursor(rater_rating_offsets_.begin(),
                               rater_rating_offsets_.end() - 1);
    for (size_t lr = 0; lr < review_ids_.size(); ++lr) {
      for (size_t k = review_rating_offsets_[lr];
           k < review_rating_offsets_[lr + 1]; ++k) {
        const auto& rr = review_ratings_[k];
        rater_ratings_[cursor[rr.local_rater]++] = {
            static_cast<uint32_t>(lr), rr.value};
      }
    }
  }

  // Writer-side review grouping.
  writer_review_offsets_.assign(writer_ids_.size() + 1, 0);
  for (uint32_t lw : review_writer_) {
    ++writer_review_offsets_[lw + 1];
  }
  for (size_t i = 1; i < writer_review_offsets_.size(); ++i) {
    writer_review_offsets_[i] += writer_review_offsets_[i - 1];
  }
  writer_reviews_.resize(review_ids_.size());
  {
    std::vector<size_t> cursor(writer_review_offsets_.begin(),
                               writer_review_offsets_.end() - 1);
    for (size_t lr = 0; lr < review_ids_.size(); ++lr) {
      writer_reviews_[cursor[review_writer_[lr]]++] =
          static_cast<uint32_t>(lr);
    }
  }
}

std::span<const CategoryView::ReviewSideRating> CategoryView::RatingsOfReview(
    size_t local_review) const {
  WOT_DCHECK(local_review < num_reviews());
  size_t begin = review_rating_offsets_[local_review];
  size_t end = review_rating_offsets_[local_review + 1];
  return {review_ratings_.data() + begin, end - begin};
}

std::span<const CategoryView::RaterSideRating> CategoryView::RatingsByRater(
    size_t local_rater) const {
  WOT_DCHECK(local_rater < num_raters());
  size_t begin = rater_rating_offsets_[local_rater];
  size_t end = rater_rating_offsets_[local_rater + 1];
  return {rater_ratings_.data() + begin, end - begin};
}

std::span<const uint32_t> CategoryView::ReviewsOfWriter(
    size_t local_writer) const {
  WOT_DCHECK(local_writer < num_writers());
  size_t begin = writer_review_offsets_[local_writer];
  size_t end = writer_review_offsets_[local_writer + 1];
  return {writer_reviews_.data() + begin, end - begin};
}

}  // namespace wot
