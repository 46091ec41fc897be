// Validating builder for Dataset.
#ifndef WOT_COMMUNITY_DATASET_BUILDER_H_
#define WOT_COMMUNITY_DATASET_BUILDER_H_

#include <string>
#include <unordered_set>

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

  /// \brief Assembles a Dataset directly from columns, skipping the
  /// policy checks and dedup-key bookkeeping of the incremental Add*
  /// path. For trusted loaders only — e.g. the storage layer's
  /// CRC-verified snapshot segments, whose contents went through a
  /// validating builder when written. Entity ids are reassigned densely
  /// from column order and review categories are denormalized from their
  /// object; cross-column references are bounds-checked (an error, never
  /// a fault, on corrupt input) but nothing else is.
  static Result<Dataset> FromValidatedColumns(
      std::vector<Category> categories, std::vector<User> users,
      std::vector<Object> objects, std::vector<Review> reviews,
      std::vector<ReviewRating> ratings,
      std::vector<TrustStatement> trust_statements);

  /// \brief Installs an already-validated dataset as this (empty)
  /// builder's staged state, without replaying it through the Add* path.
  /// This is the instant-restore complement of FromValidatedColumns:
  /// ids must already be dense in column order (FromValidatedColumns
  /// guarantees that). Sequential-scan policy rules (rating scale,
  /// self-trust) are still enforced here; per-row random-access rules
  /// (self-ratings) and dedup uniqueness are trusted from the validated
  /// source, and the dedup key sets are NOT rebuilt eagerly but lazily,
  /// on the first Add* call that needs them, so adoption costs O(scan)
  /// instead of O(hash-insert) per row. Future ingests validate against
  /// exactly the keys an incremental build would have produced. The
  /// category index is built here, in one pass over the columns.
  Status AdoptValidated(Dataset dataset);

  /// \brief Read-only view of the dataset under construction. The reference
  /// stays valid until Build(); contents grow as entities are added. Used
  /// by generators that interleave reads (e.g. "who wrote this review?")
  /// with appends.
  const Dataset& StagedView() const { return dataset_; }

  /// \brief The per-category index of StagedView(), current after every
  /// successful Add* call (rejected calls leave it untouched) and after
  /// AdoptValidated. Same lifetime rules as StagedView().
  const CategoryIndex& category_index() const { return index_; }

  size_t num_users() const { return dataset_.users_.size(); }
  size_t num_reviews() const { return dataset_.reviews_.size(); }

 private:
  Status CheckUser(UserId id, const char* role) const;
  /// Bulk-builds the dedup key sets from the adopted columns. No-op on
  /// the incremental path (keys are maintained per Add* call there).
  void EnsureDedupKeys();

  DatasetBuilderOptions options_;
  Dataset dataset_;
  CategoryIndex index_;
  // Dedup keys: (writer, object), (rater, review), (src, dst) as u64.
  // After AdoptValidated() these are stale until the first Add* call
  // that consults them (EnsureDedupKeys rebuilds in one pass).
  bool dedup_keys_synced_ = true;
  std::unordered_set<uint64_t> review_keys_;
  std::unordered_set<uint64_t> rating_keys_;
  std::unordered_set<uint64_t> trust_keys_;
};

}  // namespace wot

#endif  // WOT_COMMUNITY_DATASET_BUILDER_H_
