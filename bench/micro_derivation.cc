// Microbenchmarks of Step-3 strategies: dense derivation, pair-restricted
// derivation, streaming binarization, and top-k via full scan vs the
// Fagin-style threshold algorithm.
#include <map>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "wot/core/binarization.h"
#include "wot/service/pipeline.h"

namespace wot {
namespace {

struct Artifacts {
  SynthCommunity community;
  TrustPipeline pipeline;
};

const Artifacts& ArtifactsOfSize(size_t users) {
  static std::map<size_t, Artifacts>* cache =
      new std::map<size_t, Artifacts>();
  auto it = cache->find(users);
  if (it == cache->end()) {
    SynthCommunity community =
        GenerateCommunity(bench::PaperScaleConfig(users, 42)).ValueOrDie();
    TrustPipeline pipeline =
        TrustPipeline::Run(community.dataset).ValueOrDie();
    it = cache
             ->emplace(users, Artifacts{std::move(community),
                                        std::move(pipeline)})
             .first;
  }
  return it->second;
}

void BM_DeriveRow(benchmark::State& state) {
  const Artifacts& a = ArtifactsOfSize(static_cast<size_t>(state.range(0)));
  TrustDeriver deriver = a.pipeline.MakeDeriver();
  std::vector<double> row(deriver.num_users());
  size_t i = 0;
  for (auto _ : state) {
    deriver.DeriveRow(i, row);
    benchmark::DoNotOptimize(row.data());
    i = (i + 1) % deriver.num_users();
  }
}
BENCHMARK(BM_DeriveRow)->Arg(1000)->Arg(4000);

void BM_DeriveForPairsR(benchmark::State& state) {
  const Artifacts& a = ArtifactsOfSize(static_cast<size_t>(state.range(0)));
  TrustDeriver deriver = a.pipeline.MakeDeriver();
  for (auto _ : state) {
    SparseMatrix derived =
        deriver.DeriveForPairs(a.pipeline.direct_connections());
    benchmark::DoNotOptimize(derived.nnz());
  }
  state.counters["pairs"] =
      static_cast<double>(a.pipeline.direct_connections().nnz());
}
BENCHMARK(BM_DeriveForPairsR)->Arg(1000)->Arg(4000);

void BM_TopKScan(benchmark::State& state) {
  const Artifacts& a = ArtifactsOfSize(2000);
  TrustDeriver deriver = a.pipeline.MakeDeriver();
  size_t i = 0;
  for (auto _ : state) {
    auto top = deriver.DeriveRowTopK(i, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(top.data());
    i = (i + 1) % deriver.num_users();
  }
}
BENCHMARK(BM_TopKScan)->Arg(10)->Arg(100);

void BM_TopKThresholdAlgorithm(benchmark::State& state) {
  const Artifacts& a = ArtifactsOfSize(2000);
  TrustDeriver deriver = a.pipeline.MakeDeriver();
  deriver.BuildPostings();
  size_t i = 0;
  for (auto _ : state) {
    auto top = deriver.DeriveRowTopK(i, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(top.data());
    i = (i + 1) % deriver.num_users();
  }
}
BENCHMARK(BM_TopKThresholdAlgorithm)->Arg(10)->Arg(100);

void BM_StreamingBinarization(benchmark::State& state) {
  const Artifacts& a = ArtifactsOfSize(static_cast<size_t>(state.range(0)));
  TrustDeriver deriver = a.pipeline.MakeDeriver();
  BinarizationOptions options;
  options.policy = BinarizationPolicy::kPerUserQuantile;
  options.per_user_fraction = ComputeTrustGenerosity(
      a.pipeline.direct_connections(), a.pipeline.explicit_trust());
  for (auto _ : state) {
    SparseMatrix binary =
        BinarizeDerivedTrust(deriver, options).ValueOrDie();
    benchmark::DoNotOptimize(binary.nnz());
  }
}
BENCHMARK(BM_StreamingBinarization)->Arg(1000)->Arg(2000);

void BM_FullPipeline(benchmark::State& state) {
  const Artifacts& a = ArtifactsOfSize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TrustPipeline pipeline =
        TrustPipeline::Run(a.community.dataset).ValueOrDie();
    benchmark::DoNotOptimize(pipeline.expertise().data().data());
  }
  state.counters["ratings"] =
      static_cast<double>(a.community.dataset.num_ratings());
}
BENCHMARK(BM_FullPipeline)->Arg(1000)->Arg(4000)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace wot
