// Microbenchmarks of the Step-1 kernels: the Riggs fixed point per
// category and the full multi-category engine, along the community-size
// and tolerance axes.
#include <cmath>
#include <map>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "wot/community/category_view.h"
#include "wot/reputation/engine.h"
#include "wot/reputation/riggs.h"

namespace wot {
namespace {

const SynthCommunity& CommunityOfSize(size_t users) {
  static std::map<size_t, SynthCommunity>* cache =
      new std::map<size_t, SynthCommunity>();
  auto it = cache->find(users);
  if (it == cache->end()) {
    it = cache
             ->emplace(users, GenerateCommunity(
                                  bench::PaperScaleConfig(users, 42))
                                  .ValueOrDie())
             .first;
  }
  return it->second;
}

void BM_RiggsFixedPointLargestCategory(benchmark::State& state) {
  const SynthCommunity& community =
      CommunityOfSize(static_cast<size_t>(state.range(0)));
  CategoryIndex index(community.dataset);
  // Category 0 is the most popular under the Zipf prior.
  CategoryView view(community.dataset, index, CategoryId(0));
  ReputationOptions options;
  size_t iterations = 0;
  for (auto _ : state) {
    RiggsResult result = RiggsFixedPoint(view, options);
    iterations = result.convergence.iterations;
    benchmark::DoNotOptimize(result.review_quality.data());
  }
  state.counters["ratings"] = static_cast<double>(view.num_ratings());
  state.counters["fp_iters"] = static_cast<double>(iterations);
}
BENCHMARK(BM_RiggsFixedPointLargestCategory)->Arg(1000)->Arg(4000);

void BM_ReputationEngineAllCategories(benchmark::State& state) {
  const SynthCommunity& community =
      CommunityOfSize(static_cast<size_t>(state.range(0)));
  CategoryIndex index(community.dataset);
  ReputationOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto result = ComputeReputations(community.dataset, index, options);
    benchmark::DoNotOptimize(result.ValueOrDie().expertise.data().data());
  }
  state.counters["reviews"] =
      static_cast<double>(community.dataset.num_reviews());
}
BENCHMARK(BM_ReputationEngineAllCategories)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({4000, 1})
    ->Args({4000, 2});

void BM_RiggsToleranceSweep(benchmark::State& state) {
  const SynthCommunity& community = CommunityOfSize(2000);
  CategoryIndex index(community.dataset);
  CategoryView view(community.dataset, index, CategoryId(0));
  ReputationOptions options;
  options.tolerance = std::pow(10.0, -static_cast<double>(state.range(0)));
  size_t iterations = 0;
  for (auto _ : state) {
    RiggsResult result = RiggsFixedPoint(view, options);
    iterations = result.convergence.iterations;
    benchmark::DoNotOptimize(result.rater_reputation.data());
  }
  state.counters["fp_iters"] = static_cast<double>(iterations);
}
BENCHMARK(BM_RiggsToleranceSweep)->Arg(3)->Arg(6)->Arg(9)->Arg(12);

void BM_CategoryViewConstruction(benchmark::State& state) {
  const SynthCommunity& community =
      CommunityOfSize(static_cast<size_t>(state.range(0)));
  CategoryIndex index(community.dataset);
  for (auto _ : state) {
    CategoryView view(community.dataset, index, CategoryId(0));
    benchmark::DoNotOptimize(view.num_ratings());
  }
}
BENCHMARK(BM_CategoryViewConstruction)->Arg(1000)->Arg(4000);

void BM_CategoryIndexConstruction(benchmark::State& state) {
  const SynthCommunity& community =
      CommunityOfSize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    CategoryIndex index(community.dataset);
    benchmark::DoNotOptimize(index.num_users());
  }
  state.counters["ratings"] =
      static_cast<double>(community.dataset.num_ratings());
}
BENCHMARK(BM_CategoryIndexConstruction)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace wot
