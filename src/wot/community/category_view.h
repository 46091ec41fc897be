// CategoryView: a self-contained, locally-indexed projection of one
// category's reviews, writers, raters and ratings. The Riggs fixed point
// (eq. 1 + 2) runs entirely inside one view, so per-category computations
// are independent and parallelize trivially.
#ifndef WOT_COMMUNITY_CATEGORY_VIEW_H_
#define WOT_COMMUNITY_CATEGORY_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "wot/community/category_index.h"
#include "wot/community/dataset.h"

namespace wot {

/// \brief Column-sliced view of one category.
///
/// Global ids are remapped to dense local indices:
///   local review   lr in [0, num_reviews())
///   local writer   lw in [0, num_writers())
///   local rater    lx in [0, num_raters())
/// Ratings appear twice, grouped by review (for eq. 1) and grouped by rater
/// (for eq. 2).
///
/// Every order is fixed by the dataset alone: reviews ascend by id, writers
/// and raters are numbered in first-seen order over the reviews, and a
/// review's ratings ascend by rating id. The Riggs sums run in these
/// orders, so any two views of the same data give bit-identical results.
class CategoryView {
 public:
  /// \brief Materializes the view for \p category in
  /// O(reviews + ratings of the category + users); \p index must describe
  /// \p dataset.
  CategoryView(const Dataset& dataset, const CategoryIndex& index,
               CategoryId category);

  CategoryId category() const { return category_; }
  size_t num_reviews() const { return review_ids_.size(); }
  size_t num_writers() const { return writer_ids_.size(); }
  size_t num_raters() const { return rater_ids_.size(); }
  size_t num_ratings() const { return review_ratings_.size(); }

  ReviewId review_id(size_t local_review) const {
    return review_ids_[local_review];
  }
  UserId writer_id(size_t local_writer) const {
    return writer_ids_[local_writer];
  }
  UserId rater_id(size_t local_rater) const { return rater_ids_[local_rater]; }

  /// \brief Local writer of a local review.
  uint32_t WriterOfReview(size_t local_review) const {
    return review_writer_[local_review];
  }

  /// A rating seen from the review side: local rater index + value.
  struct ReviewSideRating {
    uint32_t local_rater;
    double value;
  };
  /// A rating seen from the rater side: local review index + value.
  struct RaterSideRating {
    uint32_t local_review;
    double value;
  };

  /// \brief Ratings received by a local review.
  std::span<const ReviewSideRating> RatingsOfReview(
      size_t local_review) const;

  /// \brief Ratings given by a local rater within this category.
  std::span<const RaterSideRating> RatingsByRater(size_t local_rater) const;

  /// \brief Local reviews written by a local writer.
  std::span<const uint32_t> ReviewsOfWriter(size_t local_writer) const;

 private:
  CategoryId category_;

  std::vector<ReviewId> review_ids_;   // local review -> global
  std::vector<UserId> writer_ids_;     // local writer -> global
  std::vector<UserId> rater_ids_;      // local rater -> global
  std::vector<uint32_t> review_writer_;  // local review -> local writer

  // Ratings grouped by review.
  std::vector<size_t> review_rating_offsets_;
  std::vector<ReviewSideRating> review_ratings_;

  // Ratings grouped by rater.
  std::vector<size_t> rater_rating_offsets_;
  std::vector<RaterSideRating> rater_ratings_;

  // Reviews grouped by writer.
  std::vector<size_t> writer_review_offsets_;
  std::vector<uint32_t> writer_reviews_;
};

}  // namespace wot

#endif  // WOT_COMMUNITY_CATEGORY_VIEW_H_
