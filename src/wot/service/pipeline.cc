#include "wot/service/pipeline.h"

#include "wot/util/logging.h"
#include "wot/util/stopwatch.h"

namespace wot {

Result<TrustPipeline> TrustPipeline::Run(const Dataset& dataset,
                                         const PipelineOptions& options) {
  Stopwatch timer;
  TrustPipeline pipeline;
  pipeline.dataset_ = &dataset;
  pipeline.indices_ = std::make_unique<DatasetIndices>(dataset);

  // Batch callers derive in bulk through MakeDeriver and build postings
  // themselves if they want top-k, so the snapshot skips them.
  SnapshotOptions snapshot_options;
  snapshot_options.reputation = options.reputation;
  snapshot_options.build_postings = false;
  WOT_ASSIGN_OR_RETURN(
      pipeline.snapshot_,
      TrustSnapshot::Build(dataset, snapshot_options));

  pipeline.direct_ =
      BuildDirectConnectionMatrix(dataset, *pipeline.indices_);
  pipeline.explicit_trust_ = BuildExplicitTrustMatrix(dataset);
  if (options.compute_baseline) {
    pipeline.baseline_ = ComputeBaselineMatrix(dataset, *pipeline.indices_);
  }

  size_t unconverged = 0;
  for (const auto& info : pipeline.snapshot_->reputation().convergence) {
    if (!info.converged) {
      ++unconverged;
    }
  }
  if (unconverged > 0) {
    WOT_LOG(Warning) << unconverged
                     << " categories hit the iteration cap before reaching "
                        "the quality tolerance";
  }
  WOT_LOG(Info) << "pipeline ran in " << timer.ElapsedMillis() << " ms over "
                << dataset.Summary();
  return pipeline;
}

}  // namespace wot
