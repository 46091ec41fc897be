// TrustPipeline: the one-shot *batch* front end of the library.
//
//   Dataset -> TrustSnapshot::Build (Steps 1-3 derived state)
//           -> indices -> observation matrices (R, T) and the baseline B
//
// TrustPipeline is a thin facade over one-shot service construction: the
// derived artifacts (expertise E, affiliation A, review qualities) live in
// an immutable TrustSnapshot built by the serving layer, and the pipeline
// adds the validation-only matrices on top. Use TrustPipeline when you have
// a complete dataset and want every artifact once (experiments, validation,
// offline derivation); use TrustService (wot/service/trust_service.h) when
// the community keeps growing and trust values must stay queryable while
// they are refreshed incrementally.
//
// A typical batch caller:
//
//   WOT_ASSIGN_OR_RETURN(TrustPipeline pipe,
//                        TrustPipeline::Run(dataset, {}));
//   TrustDeriver deriver = pipe.MakeDeriver();
//   double degree = deriver.DeriveOne(alice.index(), bob.index());
#ifndef WOT_SERVICE_PIPELINE_H_
#define WOT_SERVICE_PIPELINE_H_

#include <memory>

#include "wot/community/dataset.h"
#include "wot/community/indices.h"
#include "wot/core/baseline.h"
#include "wot/core/trust_derivation.h"
#include "wot/reputation/engine.h"
#include "wot/service/trust_snapshot.h"
#include "wot/util/result.h"

namespace wot {

/// \brief Pipeline-level options.
struct PipelineOptions {
  ReputationOptions reputation;
  /// Also compute the baseline matrix B (skippable when not validating).
  bool compute_baseline = true;
};

/// \brief Owns every artifact derived from one dataset. The dataset itself
/// is borrowed and must outlive the pipeline.
class TrustPipeline {
 public:
  /// \brief Runs steps 1-2 and builds R, T and (optionally) B.
  static Result<TrustPipeline> Run(const Dataset& dataset,
                                   const PipelineOptions& options = {});

  const Dataset& dataset() const { return *dataset_; }
  const DatasetIndices& indices() const { return *indices_; }

  /// E (eq. 3 per category): U x C.
  const DenseMatrix& expertise() const { return snapshot_->expertise(); }
  /// Rater reputations (eq. 2 per category): U x C.
  const DenseMatrix& rater_reputation() const {
    return snapshot_->reputation().rater_reputation;
  }
  /// A (eq. 4): U x C.
  const DenseMatrix& affiliation() const { return snapshot_->affiliation(); }
  /// Full Step-1 output including review qualities and convergence info.
  const ReputationResult& reputation() const {
    return snapshot_->reputation();
  }

  /// \brief The derived-state snapshot backing this pipeline (version 1;
  /// the same object a TrustService would have published initially).
  const TrustSnapshot& snapshot() const { return *snapshot_; }

  /// R: who rated whose reviews.
  const SparseMatrix& direct_connections() const { return direct_; }
  /// T: the explicit web of trust (empty when the community has none).
  const SparseMatrix& explicit_trust() const { return explicit_trust_; }
  /// B: baseline degrees of trust (empty if compute_baseline was false).
  const SparseMatrix& baseline() const { return baseline_; }

  /// \brief A deriver bound to this pipeline's A and E (eq. 5). The
  /// pipeline must outlive the deriver.
  TrustDeriver MakeDeriver() const {
    return TrustDeriver(snapshot_->affiliation(), snapshot_->expertise());
  }

 private:
  TrustPipeline() = default;

  const Dataset* dataset_ = nullptr;
  std::unique_ptr<DatasetIndices> indices_;
  std::shared_ptr<const TrustSnapshot> snapshot_;
  SparseMatrix direct_;
  SparseMatrix explicit_trust_;
  SparseMatrix baseline_;
};

}  // namespace wot

#endif  // WOT_SERVICE_PIPELINE_H_
