// Microbenchmarks of the propagation algorithms over webs of trust built
// from the derived matrix vs the explicit one.
#include <map>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "wot/core/binarization.h"
#include "wot/graph/appleseed.h"
#include "wot/graph/eigen_trust.h"
#include "wot/graph/guha_propagation.h"
#include "wot/graph/mole_trust.h"
#include "wot/graph/tidal_trust.h"
#include "wot/service/pipeline.h"

namespace wot {
namespace {

struct Webs {
  TrustGraph explicit_web;
  TrustGraph derived_web;
};

const Webs& WebsOfSize(size_t users) {
  static std::map<size_t, Webs>* cache = new std::map<size_t, Webs>();
  auto it = cache->find(users);
  if (it == cache->end()) {
    SynthCommunity community =
        GenerateCommunity(bench::PaperScaleConfig(users, 42)).ValueOrDie();
    TrustPipeline pipeline =
        TrustPipeline::Run(community.dataset).ValueOrDie();
    TrustDeriver deriver = pipeline.MakeDeriver();
    BinarizationOptions options;
    options.policy = BinarizationPolicy::kPerUserQuantile;
    options.per_user_fraction = ComputeTrustGenerosity(
        pipeline.direct_connections(), pipeline.explicit_trust());
    Webs webs{
        TrustGraph::FromMatrix(pipeline.explicit_trust()),
        TrustGraph::FromMatrix(
            BinarizeDerivedTrust(deriver, options).ValueOrDie()),
    };
    it = cache->emplace(users, std::move(webs)).first;
  }
  return it->second;
}

void BM_TidalTrustExplicitWeb(benchmark::State& state) {
  const Webs& webs = WebsOfSize(2000);
  Rng rng(11);
  size_t found = 0;
  for (auto _ : state) {
    size_t source = rng.NextBounded(webs.explicit_web.num_nodes());
    size_t sink = rng.NextBounded(webs.explicit_web.num_nodes());
    if (source == sink) {
      continue;
    }
    auto r = TidalTrust(webs.explicit_web, source, sink);
    if (r.ok()) {
      ++found;
      benchmark::DoNotOptimize(r.ValueOrDie().trust);
    }
  }
  state.counters["coverage"] =
      benchmark::Counter(static_cast<double>(found),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TidalTrustExplicitWeb);

void BM_TidalTrustDerivedWeb(benchmark::State& state) {
  const Webs& webs = WebsOfSize(2000);
  Rng rng(11);
  size_t found = 0;
  for (auto _ : state) {
    size_t source = rng.NextBounded(webs.derived_web.num_nodes());
    size_t sink = rng.NextBounded(webs.derived_web.num_nodes());
    if (source == sink) {
      continue;
    }
    auto r = TidalTrust(webs.derived_web, source, sink);
    if (r.ok()) {
      ++found;
      benchmark::DoNotOptimize(r.ValueOrDie().trust);
    }
  }
  state.counters["coverage"] =
      benchmark::Counter(static_cast<double>(found),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TidalTrustDerivedWeb);

void BM_EigenTrust(benchmark::State& state) {
  const Webs& webs = WebsOfSize(2000);
  const TrustGraph& graph =
      state.range(0) == 0 ? webs.explicit_web : webs.derived_web;
  for (auto _ : state) {
    auto r = EigenTrust(graph);
    benchmark::DoNotOptimize(r.ValueOrDie().trust.data());
  }
  state.SetLabel(state.range(0) == 0 ? "explicit web" : "derived web");
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_EigenTrust)->Arg(0)->Arg(1);

void BM_Appleseed(benchmark::State& state) {
  const Webs& webs = WebsOfSize(2000);
  Rng rng(17);
  for (auto _ : state) {
    size_t source = rng.NextBounded(webs.derived_web.num_nodes());
    auto r = Appleseed(webs.derived_web, source);
    benchmark::DoNotOptimize(r.ValueOrDie().iterations);
  }
}
BENCHMARK(BM_Appleseed);

void BM_GuhaPropagation(benchmark::State& state) {
  // Propagate over the explicit web's belief matrix.
  SynthCommunity community =
      GenerateCommunity(bench::PaperScaleConfig(1000, 42)).ValueOrDie();
  TrustPipeline pipeline =
      TrustPipeline::Run(community.dataset).ValueOrDie();
  GuhaOptions options;
  options.steps = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto r = PropagateGuha(pipeline.explicit_trust(), options);
    benchmark::DoNotOptimize(r.ValueOrDie().beliefs.nnz());
  }
  state.SetLabel(std::to_string(state.range(0)) + " steps");
}
BENCHMARK(BM_GuhaPropagation)->Arg(2)->Arg(3)->Unit(
    benchmark::kMillisecond);

void BM_MoleTrust(benchmark::State& state) {
  const Webs& webs = WebsOfSize(2000);
  Rng rng(13);
  MoleTrustOptions options;
  options.horizon = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    size_t source = rng.NextBounded(webs.explicit_web.num_nodes());
    auto r = MoleTrust(webs.explicit_web, source, options);
    benchmark::DoNotOptimize(r.ValueOrDie().num_reached);
  }
}
BENCHMARK(BM_MoleTrust)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
}  // namespace wot
