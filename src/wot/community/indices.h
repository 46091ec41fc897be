// Secondary indices over a Dataset. Built once after load/generation, then
// shared read-only by the statistics, baseline and evaluation code. The
// reputation engine and the affiliation computation read the per-category
// CategoryIndex instead (wot/community/category_index.h).
#ifndef WOT_COMMUNITY_INDICES_H_
#define WOT_COMMUNITY_INDICES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "wot/community/dataset.h"

namespace wot {

/// \brief CSR-style grouping of ratings by review and by rater, and of
/// reviews by writer and by category.
class DatasetIndices {
 public:
  /// \brief Builds all indices in O(|reviews| + |ratings|).
  explicit DatasetIndices(const Dataset& dataset);

  /// A rating as seen from a review: who rated it and with what value.
  struct RatingRef {
    UserId rater;
    double value;
  };

  /// A rating as seen from a rater: which review, what value.
  struct RatedReviewRef {
    ReviewId review;
    double value;
  };

  /// \brief Ratings received by \p review.
  std::span<const RatingRef> RatingsOfReview(ReviewId review) const;

  /// \brief Ratings given by \p rater (across all categories).
  std::span<const RatedReviewRef> RatingsByUser(UserId rater) const;

  /// \brief Reviews written by \p writer (across all categories).
  std::span<const ReviewId> ReviewsByUser(UserId writer) const;

  /// \brief Reviews belonging to \p category.
  std::span<const ReviewId> ReviewsInCategory(CategoryId category) const;

  size_t num_users() const { return num_users_; }
  size_t num_categories() const { return num_categories_; }

 private:
  size_t num_users_;
  size_t num_categories_;

  // Ratings grouped by review.
  std::vector<size_t> review_rating_offsets_;
  std::vector<RatingRef> review_ratings_;

  // Ratings grouped by rater.
  std::vector<size_t> user_rating_offsets_;
  std::vector<RatedReviewRef> user_ratings_;

  // Reviews grouped by writer.
  std::vector<size_t> user_review_offsets_;
  std::vector<ReviewId> user_reviews_;

  // Reviews grouped by category.
  std::vector<size_t> category_review_offsets_;
  std::vector<ReviewId> category_reviews_;
};

}  // namespace wot

#endif  // WOT_COMMUNITY_INDICES_H_
