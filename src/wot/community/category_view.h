// CategoryView: a self-contained, locally-indexed, review-major slice of
// one category's reviews, writers, raters and ratings. The Riggs fixed
// point (eqs. 1 + 2) and writer aggregation (eq. 3) run entirely inside one
// slice, so per-category computations are independent and parallelize
// trivially. The reputation engine keeps one slice per category resident
// and catches it up with the appended data at every commit.
#ifndef WOT_COMMUNITY_CATEGORY_VIEW_H_
#define WOT_COMMUNITY_CATEGORY_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "wot/community/category_index.h"
#include "wot/community/dataset.h"

namespace wot {

/// \brief Review-major slice of one category.
///
/// Global ids are remapped to dense local indices:
///   local review   lr in [0, num_reviews())
///   local writer   lw in [0, num_writers())
///   local rater    lx in [0, num_raters())
/// Each review owns one run of ratings, stored as two parallel arrays
/// (local rater, value): 12 bytes per rating.
///
/// Every order is fixed by the dataset alone and only ever grows at the
/// end: reviews ascend by id, writers are numbered first-seen over the
/// reviews, raters first-seen over the category's ratings in rating-id
/// (append) order, and a review's run ascends by rating id. Appending data
/// therefore only appends ids, and a slice caught up step by step is
/// field-identical to one built in a single step.
///
/// There is no rater-side or writer-side grouping. Eq. 2 sums a rater's
/// deviations, and eq. 3 a writer's qualities, in ascending local-review
/// order; walking the review-major runs front to back visits each rater's
/// ratings and each writer's reviews in exactly that order, so a per-rater
/// or per-writer accumulator filled during the walk adds the same terms in
/// the same order as a separate grouping would, bit for bit.
class CategoryView {
 public:
  /// \brief An empty slice of \p category.
  explicit CategoryView(CategoryId category);

  /// \brief The slice of \p category over all of \p dataset: an empty
  /// slice caught up once. \p index must describe \p dataset.
  CategoryView(const Dataset& dataset, const CategoryIndex& index,
               CategoryId category);

  /// \brief Appends the category's reviews and ratings that \p index lists
  /// past what the slice already holds. \p dataset must be an append-only
  /// extension of every dataset this slice caught up with before, and
  /// \p index must describe it. Each new rating goes to the end of its
  /// review's run; runs after the first one touched shift up in one
  /// backward in-place pass. O(new data + ratings of the reviews from the
  /// first touched one on + users).
  void CatchUp(const Dataset& dataset, const CategoryIndex& index);

  CategoryId category() const { return category_; }
  size_t num_reviews() const { return review_ids_.size(); }
  size_t num_writers() const { return writer_ids_.size(); }
  size_t num_raters() const { return rater_ids_.size(); }
  size_t num_ratings() const { return rating_raters_.size(); }

  ReviewId review_id(size_t local_review) const {
    return review_ids_[local_review];
  }
  UserId writer_id(size_t local_writer) const {
    return writer_ids_[local_writer];
  }
  UserId rater_id(size_t local_rater) const { return rater_ids_[local_rater]; }

  /// \brief Local writer of a local review.
  uint32_t WriterOfReview(size_t local_review) const {
    return review_writers_[local_review];
  }

  /// \brief Local raters of the ratings a local review received, in
  /// rating-id order; parallel to ValuesOfReview().
  std::span<const uint32_t> RatersOfReview(size_t local_review) const;
  /// \brief Values of the ratings a local review received, in rating-id
  /// order.
  std::span<const double> ValuesOfReview(size_t local_review) const;

  /// \brief Number of ratings a local rater gave in this category (n_i of
  /// eq. 2); at least 1.
  uint32_t RatingCountOfRater(size_t local_rater) const {
    return rater_rating_counts_[local_rater];
  }

  bool operator==(const CategoryView&) const = default;

 private:
  CategoryId category_;

  std::vector<ReviewId> review_ids_;       // local review -> global
  std::vector<uint32_t> review_writers_;   // local review -> local writer
  // Review lr's run is [review_offsets_[lr], review_offsets_[lr + 1]).
  std::vector<uint32_t> review_offsets_;
  std::vector<uint32_t> rating_raters_;    // per rating: local rater
  std::vector<double> rating_values_;      // per rating: value
  std::vector<uint32_t> rater_rating_counts_;  // local rater -> n_i
  std::vector<UserId> rater_ids_;          // local rater -> global
  std::vector<UserId> writer_ids_;         // local writer -> global
};

}  // namespace wot

#endif  // WOT_COMMUNITY_CATEGORY_VIEW_H_
