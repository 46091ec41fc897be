// Resident slices through the serving path: random ingest/commit histories
// (new users, categories, objects, reviews and ratings) drive a
// TrustService over a synth community. After every commit, each category's
// resident slice in the Step-1 engine must be field-identical to a slice
// built once over the staged data, and the engine's result bit-identical to
// batch ComputeReputations; after the last commit, also to the two-sweep
// reference. The Threads4 cases catch slices up concurrently, one worker
// per dirty category, and also run under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "testing/reference_reputation.h"
#include "wot/community/category_view.h"
#include "wot/service/trust_service.h"
#include "wot/synth/generator.h"
#include "wot/util/rng.h"

namespace wot {
namespace {

// (history seed, permissive builder options, worker threads)
using Param = std::tuple<uint64_t, bool, size_t>;

class ResidentSlicePropertyTest : public ::testing::TestWithParam<Param> {};

void ExpectResidentStateMatchesFresh(const TrustService& service,
                                     const ReputationOptions& options) {
  const Dataset& dataset = service.staged_dataset();
  const CategoryIndex& index = service.staged_category_index();
  const IncrementalReputationEngine& engine = service.reputation_engine();
  ASSERT_EQ(engine.views().size(), dataset.num_categories());
  for (size_t c = 0; c < dataset.num_categories(); ++c) {
    const CategoryView fresh(dataset, index,
                             CategoryId(static_cast<uint32_t>(c)));
    ASSERT_TRUE(engine.views()[c] == fresh) << "category " << c;
  }
  testing::ExpectBitIdentical(
      engine.result(),
      ComputeReputations(dataset, index, options).ValueOrDie());
}

TEST_P(ResidentSlicePropertyTest, CommitsKeepSlicesAndResultsFresh) {
  const auto [seed, permissive, threads] = GetParam();
  SynthConfig config;
  config.num_users = 120;
  config.max_ratings_per_user = 30.0;
  config.seed = seed;
  TrustServiceOptions options;
  options.reputation.num_threads = threads;
  if (permissive) {
    options.builder.enforce_one_review_per_object = false;
    options.builder.reject_self_ratings = false;
    options.builder.reject_duplicate_ratings = false;
  }
  std::unique_ptr<TrustService> service =
      TrustService::Create(GenerateCommunity(config).ValueOrDie().dataset,
                           options)
          .ValueOrDie();
  ExpectResidentStateMatchesFresh(*service, options.reputation);

  Rng rng(seed * 7919 + (permissive ? 1 : 0));
  constexpr double kStages[] = {0.2, 0.4, 0.6, 0.8, 1.0};
  size_t names = 0;
  for (int commit = 0; commit < 10; ++commit) {
    SCOPED_TRACE("commit " + std::to_string(commit));
    const int mutations = 1 + static_cast<int>(rng.NextBounded(60));
    for (int m = 0; m < mutations; ++m) {
      const Dataset& staged = service->staged_dataset();
      const double roll = rng.NextDouble();
      const std::string name = "p" + std::to_string(names++);
      if (roll < 0.02) {
        service->AddCategory(name);
      } else if (roll < 0.07) {
        service->AddUser(name);
      } else if (roll < 0.12) {
        (void)service->AddObject(
            CategoryId(static_cast<uint32_t>(
                rng.NextBounded(staged.num_categories()))),
            name);
      } else if (roll < 0.25) {
        (void)service->AddReview(
            UserId(static_cast<uint32_t>(rng.NextBounded(staged.num_users()))),
            ObjectId(static_cast<uint32_t>(
                rng.NextBounded(staged.num_objects()))));
      } else {
        // Half of the ratings go to the newest reviews, so runs that an
        // earlier commit filled keep growing.
        const size_t bound =
            rng.NextBool(0.5) ? staged.num_reviews()
                              : std::min<size_t>(staged.num_reviews(), 8);
        (void)service->AddRating(
            UserId(static_cast<uint32_t>(rng.NextBounded(staged.num_users()))),
            ReviewId(static_cast<uint32_t>(staged.num_reviews() - 1 -
                                           rng.NextBounded(bound))),
            kStages[rng.NextBounded(5)]);
      }
    }
    ASSERT_TRUE(service->Commit().ok());
    ExpectResidentStateMatchesFresh(*service, options.reputation);
    if (::testing::Test::HasFatalFailure()) return;
  }
  testing::ExpectBitIdentical(
      service->reputation_engine().result(),
      testing::ReferenceReputations(service->staged_dataset(),
                                    options.reputation));
}

INSTANTIATE_TEST_SUITE_P(
    Histories, ResidentSlicePropertyTest,
    ::testing::Combine(::testing::Values(5, 17, 29), ::testing::Bool(),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "Seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Permissive" : "_Default") +
             "_Threads" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace wot
