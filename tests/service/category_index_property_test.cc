// Property: the category index kept current at ingest equals a one-pass
// build over the same staged dataset after ANY interleaving of accepted and
// rejected appends and commits, on the live ingest path and after a
// restore-style adoption.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>

#include "wot/community/category_index.h"
#include "wot/community/dataset_builder.h"
#include "wot/service/trust_service.h"
#include "wot/synth/generator.h"

namespace wot {
namespace {

Dataset SmallCommunity(uint64_t seed) {
  SynthConfig config;
  config.num_users = 120;
  config.max_ratings_per_user = 20.0;
  config.seed = seed;
  return GenerateCommunity(config).ValueOrDie().dataset;
}

struct IngestCounts {
  size_t accepted = 0;
  size_t rejected = 0;
};

// Applies \p steps random appends to \p sink (a DatasetBuilder or a
// TrustService); some are doomed by construction (self, duplicate and
// off-scale ratings) and random reviews and ratings may repeat. \p staged
// reads the sink's staged dataset; \p check runs after every step.
template <typename Sink, typename Staged, typename Check>
IngestCounts RandomIngest(Sink& sink, Staged staged, Check check,
                          std::mt19937_64& rng, size_t steps) {
  IngestCounts counts;
  auto pick = [&](size_t bound) {
    return bound == 0 ? 0 : static_cast<size_t>(rng() % bound);
  };
  auto tally = [&](bool ok) { ok ? ++counts.accepted : ++counts.rejected; };
  for (size_t step = 0; step < steps; ++step) {
    const Dataset& ds = staged();
    const UserId user(static_cast<uint32_t>(pick(ds.num_users())));
    switch (pick(20)) {
      case 0:
        sink.AddUser("user" + std::to_string(ds.num_users()));
        tally(true);
        break;
      case 1:
        sink.AddCategory("category" + std::to_string(ds.num_categories()));
        tally(true);
        break;
      case 2:
      case 3: {
        const CategoryId category(
            static_cast<uint32_t>(pick(ds.num_categories())));
        tally(sink.AddObject(category, "object" +
                                           std::to_string(ds.num_objects()))
                  .ok());
        break;
      }
      case 4:
      case 5:
      case 6: {
        const ObjectId object(static_cast<uint32_t>(pick(ds.num_objects())));
        tally(sink.AddReview(user, object).ok());
        break;
      }
      case 7: {
        // Self rating: the review's own writer.
        const ReviewId review(static_cast<uint32_t>(pick(ds.num_reviews())));
        tally(sink.AddRating(ds.review(review).writer, review, 0.8).ok());
        break;
      }
      case 8: {
        // Duplicate of an existing rating.
        const ReviewRating& rating = ds.ratings()[pick(ds.num_ratings())];
        tally(sink.AddRating(rating.rater, rating.review, 0.4).ok());
        break;
      }
      case 9: {
        const ReviewId review(static_cast<uint32_t>(pick(ds.num_reviews())));
        tally(sink.AddRating(user, review, 0.5).ok());  // off scale
        break;
      }
      default: {
        const ReviewId review(static_cast<uint32_t>(pick(ds.num_reviews())));
        tally(sink.AddRating(user, review, 0.2 * (1 + pick(5))).ok());
        break;
      }
    }
    check(step);
  }
  return counts;
}

TEST(CategoryIndexPropertyTest, ServiceIngestAndCommitKeepIndexExact) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::unique_ptr<TrustService> service =
        TrustService::Create(SmallCommunity(seed)).ValueOrDie();
    EXPECT_EQ(service->staged_category_index(),
              CategoryIndex(service->staged_dataset()));
    IngestCounts counts = RandomIngest(
        *service, [&]() -> const Dataset& { return service->staged_dataset(); },
        [&](size_t step) {
          if (step % 25 == 24) {
            ASSERT_TRUE(service->Commit().ok());
          }
          if (step % 5 == 0) {
            ASSERT_EQ(service->staged_category_index(),
                      CategoryIndex(service->staged_dataset()));
          }
        },
        rng, 400);
    ASSERT_TRUE(service->Commit().ok());
    EXPECT_EQ(service->staged_category_index(),
              CategoryIndex(service->staged_dataset()));
    EXPECT_GT(counts.accepted, 0u);
    EXPECT_GT(counts.rejected, 0u);
  }
}

TEST(CategoryIndexPropertyTest, AdoptedDatasetThenIngestKeepsIndexExact) {
  for (uint64_t seed : {21u, 22u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    DatasetBuilder builder;
    ASSERT_TRUE(builder.Adopt(SmallCommunity(seed)).ok());
    EXPECT_EQ(builder.category_index(),
              CategoryIndex(builder.StagedView()));
    IngestCounts counts = RandomIngest(
        builder, [&]() -> const Dataset& { return builder.StagedView(); },
        [&](size_t step) {
          if (step % 5 == 0) {
            ASSERT_EQ(builder.category_index(),
                      CategoryIndex(builder.StagedView()));
          }
        },
        rng, 400);
    EXPECT_EQ(builder.category_index(), CategoryIndex(builder.StagedView()));
    EXPECT_GT(counts.accepted, 0u);
    EXPECT_GT(counts.rejected, 0u);
  }
}

}  // namespace
}  // namespace wot
