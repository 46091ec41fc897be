// Reproduces **Fig. 3** — "The density of a derived matrix, a direct
// connection matrix and Epinions trust matrix": connection counts and
// densities of T-hat, R and T plus the overlap structure (T & R, T - R)
// that motivates evaluating within R.
#include <cstdio>

#include "bench_util.h"
#include "wot/eval/density.h"
#include "wot/service/pipeline.h"
#include "wot/util/check.h"
#include "wot/util/stopwatch.h"
#include "wot/util/string_util.h"

namespace wot {
namespace {

int Run(int argc, char** argv) {
  bench::ExperimentArgs args;
  FlagParser flags("fig3_density",
                   "Reproduces Fig. 3: density of the derived trust matrix "
                   "vs the direct connection matrix vs the explicit web of "
                   "trust");
  bench::RegisterCommonFlags(&flags, &args);
  WOT_CHECK_OK(flags.Parse(argc, argv));

  SynthCommunity community = bench::MakeCommunity(args);
  Stopwatch timer;
  TrustPipeline pipeline =
      TrustPipeline::Run(community.dataset).ValueOrDie();
  TrustDeriver deriver = pipeline.MakeDeriver();
  DensityReport report = ComputeDensityReport(
      deriver, pipeline.direct_connections(), pipeline.explicit_trust());

  std::printf("\nFig. 3 — connectivity and density\n%s",
              report.ToString().c_str());
  if (report.DirectDensity() > 0.0 && report.TrustDensity() > 0.0) {
    std::printf("density ratios: T-hat/R = %.1fx, T-hat/T = %.1fx\n",
                report.DerivedDensity() / report.DirectDensity(),
                report.DerivedDensity() / report.TrustDensity());
  }
  std::printf(
      "paper shape: the derived matrix is far denser than both R and T, "
      "and T - R is non-empty\n");
  std::printf("\ncomputed in %.1f ms\n", timer.ElapsedMillis());
  return 0;
}

}  // namespace
}  // namespace wot

int main(int argc, char** argv) { return wot::Run(argc, argv); }
