// The traced run's in-process half: the workload's topology booted in
// this process, its requests replayed through each module's public
// functions with a span around every call, and the per-layer numbers
// derived from those spans.
//
// Spans (name, start, end, parent, request id) are kept in memory and
// written to spans.json at the end. Every per-layer span wraps one call
// into a public function, so its self time is its duration; the request
// span's self time is what the listed calls do not cover. Stages the
// benchmark can only reach as sibling calls get derived self time:
//
//   api.envelope_ns   = ServiceFrontend::Dispatch on the owning shard
//                       - the TrustSnapshot call, same request
//   router.overhead_ns = the topology's Frontend::Dispatch
//                       - the owning shard's ServiceFrontend::Dispatch
//                       (noise around 0 when the topology has no router)
//   server.transport_residual_us = closed-loop socket round trip
//                       - (client encode + DispatchFrame/DispatchLine +
//                          client decode), medians; not forced to 0.
#ifndef WOT_BENCH_E2E_TRACE_H_
#define WOT_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workload.h"
#include "wot/community/dataset.h"
#include "wot/util/status.h"

namespace wot {
namespace e2e {

/// \brief The q-quantile (nearest rank) of \p values; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// \brief Per-layer metric name -> value.
using LayerMetrics = std::map<std::string, double>;

/// \brief Runs the in-process layer measurements for \p spec over
/// \p dataset with the seed's request stream, writes spans.json into
/// \p out_dir, and adds the per-layer metrics to \p metrics.
Status TraceLayers(const WorkloadSpec& spec, const Dataset& dataset,
                   uint64_t seed, bool smoke, const std::string& out_dir,
                   LayerMetrics* metrics);

}  // namespace e2e
}  // namespace wot

#endif  // WOT_BENCH_E2E_TRACE_H_
