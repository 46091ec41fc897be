// Microbenchmark of incremental reputation maintenance: appending one
// rating and updating vs rebuilding everything — the speedup is the point
// of IncrementalReputationEngine.
#include <map>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "wot/community/dataset_builder.h"
#include "wot/reputation/incremental.h"

namespace wot {
namespace {

struct Grown {
  Dataset before;
  Dataset after;  // before + one extra rating in category 0
};

const Grown& GrownOfSize(size_t users) {
  static std::map<size_t, Grown>* cache = new std::map<size_t, Grown>();
  auto it = cache->find(users);
  if (it != cache->end()) {
    return it->second;
  }
  SynthCommunity community =
      GenerateCommunity(bench::PaperScaleConfig(users, 42)).ValueOrDie();
  // Rebuild the dataset twice: once as-is, once with one extra rating.
  Grown grown;
  for (int with_extra = 0; with_extra < 2; ++with_extra) {
    DatasetBuilder builder;
    const Dataset& src = community.dataset;
    for (const auto& category : src.categories()) {
      builder.AddCategory(category.name);
    }
    for (const auto& user : src.users()) {
      builder.AddUser(user.name);
    }
    for (const auto& object : src.objects()) {
      WOT_CHECK(builder.AddObject(object.category, object.name).ok());
    }
    for (const auto& review : src.reviews()) {
      WOT_CHECK(builder.AddReview(review.writer, review.object).ok());
    }
    for (const auto& rating : src.ratings()) {
      WOT_CHECK_OK(
          builder.AddRating(rating.rater, rating.review, rating.value));
    }
    if (with_extra == 1) {
      // Find a (rater, review) pair in category 0 that does not exist yet.
      ReviewId target = CategoryIndex(src).ReviewsIn(CategoryId(0))[0];
      for (const auto& user : src.users()) {
        if (src.review(target).writer != user.id &&
            builder.AddRating(user.id, target, 0.8).ok()) {
          break;
        }
      }
    }
    (with_extra == 0 ? grown.before : grown.after) =
        builder.Build().ValueOrDie();
  }
  return cache->emplace(users, std::move(grown)).first->second;
}

// Both variants receive pre-built category indices, as a TrustService
// keeps one current at ingest, so the comparison isolates the reputation
// compute itself.
void BM_FullRebuildAfterOneRating(benchmark::State& state) {
  const Grown& grown = GrownOfSize(static_cast<size_t>(state.range(0)));
  CategoryIndex index(grown.after);
  for (auto _ : state) {
    IncrementalReputationEngine engine;
    WOT_CHECK_OK(engine.FullRebuild(grown.after, index));
    benchmark::DoNotOptimize(engine.result().expertise.data().data());
  }
}
BENCHMARK(BM_FullRebuildAfterOneRating)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalUpdateAfterOneRating(benchmark::State& state) {
  const Grown& grown = GrownOfSize(static_cast<size_t>(state.range(0)));
  CategoryIndex after_index(grown.after);
  IncrementalReputationEngine engine;
  WOT_CHECK_OK(engine.FullRebuild(grown.before, CategoryIndex(grown.before)));
  const ReputationResult converged = engine.result();
  size_t recomputed = 0;
  for (auto _ : state) {
    // Rewind to the converged earlier version (datasets only grow), so
    // every timed Update has exactly one dirty category to recompute.
    state.PauseTiming();
    WOT_CHECK_OK(engine.Seed(grown.before, converged));
    state.ResumeTiming();
    WOT_CHECK_OK(engine.Update(grown.after, after_index, &recomputed));
    benchmark::DoNotOptimize(engine.result().expertise.data().data());
  }
  state.counters["dirty_categories"] = static_cast<double>(recomputed);
}
BENCHMARK(BM_IncrementalUpdateAfterOneRating)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wot
