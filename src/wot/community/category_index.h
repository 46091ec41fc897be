// CategoryIndex: the per-category slice of a Dataset that Step 1 (eqs. 1-3)
// and Step 2 (eq. 4) read, kept small enough to maintain at ingest time.
//
// Categories are independent in the Riggs model, so a commit only needs to
// catch up the resident CategoryView slices of the categories it dirtied.
// This index lets it find their new reviews and ratings without regrouping
// the whole dataset: DatasetBuilder appends to it on every successful Add* call, and
// builds it in one pass over the columns when it adopts a dataset.
#ifndef WOT_COMMUNITY_CATEGORY_INDEX_H_
#define WOT_COMMUNITY_CATEGORY_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "wot/community/dataset.h"

namespace wot {

/// \brief Append-ordered review and rating ids per category, each review's
/// position within its category, and dense user x category activity counts.
///
/// Append order is id order, so every list is ascending. Two indices over
/// the same dataset compare equal however they were built.
class CategoryIndex {
 public:
  /// \brief The index of an empty dataset.
  CategoryIndex() = default;

  /// \brief Builds the index of \p dataset in one pass over its reviews and
  /// one over its ratings.
  explicit CategoryIndex(const Dataset& dataset);

  // Append hooks, called by DatasetBuilder after the matching Add* call
  // succeeded (they do no validation of their own).
  void AddUser();
  void AddCategory();
  void AddReview(const Review& review);
  /// \p rating_id is the rating's position in Dataset::ratings();
  /// \p category is its review's category.
  void AddRating(uint32_t rating_id, const ReviewRating& rating,
                 CategoryId category);

  /// \brief Reviews of \p category, ascending.
  std::span<const ReviewId> ReviewsIn(CategoryId category) const {
    return reviews_[category.index()];
  }
  /// \brief Positions in Dataset::ratings() of the ratings of reviews in
  /// \p category, ascending.
  std::span<const uint32_t> RatingsIn(CategoryId category) const {
    return ratings_[category.index()];
  }
  /// \brief Position of \p review within ReviewsIn(its category).
  uint32_t PositionInCategory(ReviewId review) const {
    return review_position_[review.index()];
  }

  /// \brief Number of reviews user \p u wrote in \p category (a^w_ij in
  /// eq. 4).
  uint32_t WriteCount(UserId u, CategoryId category) const {
    return write_counts_[u.index() * num_categories_ + category.index()];
  }
  /// \brief Number of ratings user \p u gave in \p category (a^r_ij in
  /// eq. 4).
  uint32_t RateCount(UserId u, CategoryId category) const {
    return rate_counts_[u.index() * num_categories_ + category.index()];
  }

  size_t num_users() const { return num_users_; }
  size_t num_categories() const { return num_categories_; }

  bool operator==(const CategoryIndex&) const = default;

 private:
  /// Files a review whose review_position_ slot already exists.
  void FileReview(const Review& review);

  size_t num_users_ = 0;
  size_t num_categories_ = 0;
  std::vector<std::vector<ReviewId>> reviews_;   // per category
  std::vector<std::vector<uint32_t>> ratings_;   // per category
  std::vector<uint32_t> review_position_;        // per review
  // Dense (user x category), row-major by user: a user's affiliation row
  // (eq. 4) reads one contiguous run.
  std::vector<uint32_t> write_counts_;
  std::vector<uint32_t> rate_counts_;
};

}  // namespace wot

#endif  // WOT_COMMUNITY_CATEGORY_INDEX_H_
