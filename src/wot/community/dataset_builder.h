// Validating builder for Dataset.
#ifndef WOT_COMMUNITY_DATASET_BUILDER_H_
#define WOT_COMMUNITY_DATASET_BUILDER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "wot/community/category_index.h"
#include "wot/community/dataset.h"
#include "wot/util/result.h"

namespace wot {

/// \brief Construction-time policy knobs.
struct DatasetBuilderOptions {
  /// Reject a second review by the same writer on the same object (Epinions
  /// allows one review per user per object; the paper's affiliation formula
  /// relies on this).
  bool enforce_one_review_per_object = true;
  /// Reject users rating their own reviews.
  bool reject_self_ratings = true;
  /// Reject duplicate (rater, review) rating pairs.
  bool reject_duplicate_ratings = true;
  /// Reject ratings that are not one of the five scale stages.
  bool enforce_rating_scale = true;
  /// Reject duplicate or self trust statements.
  bool reject_degenerate_trust = true;
};

/// \brief Accumulates entities, checks referential integrity and policy
/// rules, and produces an immutable Dataset.
///
/// All Add* methods return the id assigned to the new entity (or an error).
/// The builder is single-threaded.
class DatasetBuilder {
 public:
  explicit DatasetBuilder(DatasetBuilderOptions options = {});

  UserId AddUser(std::string name);
  CategoryId AddCategory(std::string name);

  /// \brief Adds an object belonging to \p category.
  Result<ObjectId> AddObject(CategoryId category, std::string name);

  /// \brief Adds a review of \p object written by \p writer. The review's
  /// category is inherited from the object.
  Result<ReviewId> AddReview(UserId writer, ObjectId object);

  /// \brief Adds a rating of \p review by \p rater with value \p value.
  Status AddRating(UserId rater, ReviewId review, double value);

  /// \brief Records "source trusts target" (ground truth only).
  Status AddTrust(UserId source, UserId target);

  /// \brief Finalizes. The builder is consumed (left empty).
  Result<Dataset> Build();

  /// \brief Assembles a Dataset directly from columns: entity ids are
  /// reassigned densely from column order, review categories are
  /// denormalized from their object, and every cross-column reference is
  /// bounds-checked (an error, never a fault, on corrupt input). No policy
  /// rule is applied; loaders pass the result to Adopt, which applies them.
  static Result<Dataset> FromValidatedColumns(
      std::vector<Category> categories, std::vector<User> users,
      std::vector<Object> objects, std::vector<Review> reviews,
      std::vector<ReviewRating> ratings,
      std::vector<TrustStatement> trust_statements);

  /// \brief Installs \p dataset as this (empty) builder's staged state
  /// after checking it against every rule of this builder's options, in
  /// bulk over whole columns. Accepts exactly the datasets that replaying
  /// \p dataset through the Add* calls, in column order, would accept, and
  /// returns the same Status as the first call that replay would reject.
  /// Uniqueness is checked by sorting each column's pair keys once; the
  /// sorted keys then serve as the dedup base of later Add* calls. The
  /// category index is built here, in one pass over the columns. Requires
  /// an empty builder; a rejected dataset leaves it empty.
  Status Adopt(Dataset dataset);

  /// \brief Read-only view of the dataset under construction. The reference
  /// stays valid until Build(); contents grow as entities are added. Used
  /// by generators that interleave reads (e.g. "who wrote this review?")
  /// with appends.
  const Dataset& StagedView() const { return dataset_; }

  /// \brief The per-category index of StagedView(), current after every
  /// successful Add* call (rejected calls leave it untouched) and after
  /// Adopt. Same lifetime rules as StagedView().
  const CategoryIndex& category_index() const { return index_; }

  size_t num_users() const { return dataset_.users_.size(); }
  size_t num_reviews() const { return dataset_.reviews_.size(); }

 private:
  /// A set of u64 pair keys: a sorted base (an adopted dataset's keys,
  /// sorted once) plus a hash set of the keys inserted since.
  class KeySet {
   public:
    /// An empty set, or the set of \p sorted_base (sorted, unique).
    explicit KeySet(std::vector<uint64_t> sorted_base = {})
        : base_(std::move(sorted_base)) {}
    /// Inserts \p key; false (and no change) when it is already present.
    bool Insert(uint64_t key);

   private:
    std::vector<uint64_t> base_;
    std::unordered_set<uint64_t> added_;
  };

  Status CheckUser(UserId id, const char* role) const;
  // The per-row rules of each Add* call that precede its dedup check,
  // shared by the Add* path and Adopt's column scans.
  Status CheckObject(CategoryId category) const;
  Status CheckReview(UserId writer, ObjectId object) const;
  Status CheckRating(UserId rater, ReviewId review, double value) const;
  Status CheckTrust(UserId source, UserId target) const;

  DatasetBuilderOptions options_;
  Dataset dataset_;
  CategoryIndex index_;
  // Dedup keys: (writer, object), (rater, review), (src, dst) as u64.
  KeySet review_keys_;
  KeySet rating_keys_;
  KeySet trust_keys_;
};

}  // namespace wot

#endif  // WOT_COMMUNITY_DATASET_BUILDER_H_
