// TrustSnapshot: one immutable, fully derived version of the web of trust.
//
// A snapshot bundles everything the read path needs — the Step-1
// ReputationResult (expertise E, rater reputations, review qualities,
// convergence info), the Step-2 affiliation matrix A, and a Step-3
// TrustDeriver with per-category expertise postings — into a single
// self-contained object. Snapshots never reference the live dataset, so a
// reader holding a std::shared_ptr<const TrustSnapshot> can keep querying
// it (lock-free) while the writer builds and publishes newer versions.
//
// Immutable-after-build is a machine-checked invariant, not a
// convention: the public surface below must stay const/static-only —
// tools/wot_lint.py (rule: snapshot, a smoke-tier ctest entry) fails
// the suite if a non-const public member function ever appears here.
//
// Construction paths:
//   * Build()    — one-shot, from a dataset (the batch path; TrustPipeline
//                  is a facade over this).
//   * Assemble() — from precomputed components (the incremental path;
//                  TrustService reuses clean postings from the previous
//                  snapshot and hands the rest in).
#ifndef WOT_SERVICE_TRUST_SNAPSHOT_H_
#define WOT_SERVICE_TRUST_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wot/community/dataset.h"
#include "wot/core/trust_derivation.h"
#include "wot/linalg/dense_matrix.h"
#include "wot/reputation/engine.h"
#include "wot/service/name_index.h"
#include "wot/util/result.h"

namespace wot {

/// \brief Options of one-shot snapshot construction.
struct SnapshotOptions {
  ReputationOptions reputation;
  /// Build per-category expertise postings so TopK uses the threshold
  /// algorithm. Skippable for batch callers that never ask for top-k.
  bool build_postings = true;
};

/// \brief One eq.-5 term of an ExplainTrust breakdown.
struct TrustContribution {
  uint32_t category = 0;
  double affiliation = 0.0;   ///< A[i][c]
  double expertise = 0.0;     ///< E[j][c]
  double contribution = 0.0;  ///< A[i][c] * E[j][c] / sum_c A[i][c]
};

/// \brief Per-category breakdown of one derived degree of trust.
struct TrustExplanation {
  /// The derived degree, computed exactly like Trust(i, j). The terms'
  /// contributions sum to this up to floating-point re-association.
  double trust = 0.0;
  /// sum_c A[i][c], the eq.-5 denominator (0 for an inactive truster).
  double affinity_sum = 0.0;
  /// Terms with A[i][c] > 0, sorted by descending contribution (ties by
  /// ascending category id).
  std::vector<TrustContribution> terms;
};

/// \brief An immutable published version of the derived web of trust.
///
/// All query methods are const, touch only snapshot-owned state, and are
/// safe to call concurrently from any number of threads. Out-of-range user
/// indices (e.g. users ingested after this snapshot was published) derive
/// to 0 / empty rather than faulting, so readers racing a writer never
/// need to re-validate ids against a newer snapshot.
class TrustSnapshot {
 public:
  /// \brief One-shot construction: Steps 1-3 from scratch over \p dataset.
  /// The snapshot gets version 1.
  static Result<std::shared_ptr<const TrustSnapshot>> Build(
      const Dataset& dataset, const SnapshotOptions& options = {});

  /// \brief Assembles a snapshot from precomputed components. \p postings
  /// must be empty (no top-k acceleration) or have one non-null entry per
  /// category. \p user_names must cover exactly the affiliation rows and
  /// \p category_names its columns (both may be shared with the previous
  /// snapshot — names are append-only). \p num_reviews / \p num_ratings
  /// describe the dataset version the components were derived from.
  static std::shared_ptr<const TrustSnapshot> Assemble(
      ReputationResult reputation, DenseMatrix affiliation,
      std::vector<ExpertisePostingPtr> postings,
      std::shared_ptr<const NameIndex> user_names,
      std::shared_ptr<const std::vector<std::string>> category_names,
      uint64_t version, size_t num_reviews, size_t num_ratings);

  /// Monotonically increasing publish sequence number (1 = initial).
  uint64_t version() const { return version_; }

  size_t num_users() const { return affiliation_.rows(); }
  size_t num_categories() const { return affiliation_.cols(); }
  size_t num_reviews() const { return num_reviews_; }
  size_t num_ratings() const { return num_ratings_; }

  /// \brief The derived degree of trust T-hat[i][j] (eq. 5); 0 when either
  /// index is out of range for this snapshot.
  double Trust(size_t i, size_t j) const;

  /// \brief Exact top-k trustees of user \p i (descending score, ties by
  /// ascending user id, diagonal excluded). Empty when \p i is out of
  /// range.
  std::vector<ScoredUser> TopK(size_t i, size_t k) const;

  /// \brief Per-category contribution breakdown of Trust(i, j). Empty
  /// terms and trust 0 when out of range.
  TrustExplanation ExplainTrust(size_t i, size_t j) const;

  /// \brief The immutable user-name directory this snapshot serves. Name
  /// resolution on the read path goes through here exclusively, so
  /// concurrent readers never see the writer-side staged dataset; users
  /// ingested after this snapshot published are not yet resolvable.
  const NameIndex& user_names() const { return *user_names_; }
  /// Shared form, for extending into the next snapshot's index.
  const std::shared_ptr<const NameIndex>& shared_user_names() const {
    return user_names_;
  }

  /// Display names of the snapshot's categories (index = CategoryId).
  const std::vector<std::string>& category_names() const {
    return *category_names_;
  }
  const std::shared_ptr<const std::vector<std::string>>&
  shared_category_names() const {
    return category_names_;
  }

  /// Full Step-1 output (E, rater reputations, review qualities,
  /// convergence diagnostics).
  const ReputationResult& reputation() const { return reputation_; }
  /// E: U x C.
  const DenseMatrix& expertise() const { return reputation_.expertise; }
  /// A: U x C.
  const DenseMatrix& affiliation() const { return affiliation_; }
  /// The bound deriver (for batch-style bulk derivation over the
  /// snapshot). References snapshot-owned matrices; the snapshot must stay
  /// alive while the reference is used.
  const TrustDeriver& deriver() const { return *deriver_; }

 private:
  TrustSnapshot() = default;

  ReputationResult reputation_;
  DenseMatrix affiliation_;
  // Bound to reputation_.expertise and affiliation_; created after both
  // reach their final addresses.
  std::unique_ptr<TrustDeriver> deriver_;
  // Never null; shared with neighboring snapshots where unchanged.
  std::shared_ptr<const NameIndex> user_names_;
  std::shared_ptr<const std::vector<std::string>> category_names_;
  uint64_t version_ = 0;
  size_t num_reviews_ = 0;
  size_t num_ratings_ = 0;
};

}  // namespace wot

#endif  // WOT_SERVICE_TRUST_SNAPSHOT_H_
