// Unit tests of SliceDatasetByUser: the round-robin user partition,
// replicated category/object context, per-shard review renumbering, and
// the cross-shard rating/trust drop rule — plus the load-bearing
// degenerate case, num_shards == 1 reproducing the seed exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/fixtures.h"
#include "wot/community/dataset_builder.h"
#include "wot/service/dataset_shard.h"
#include "wot/synth/generator.h"

namespace wot {
namespace {

Dataset SynthCommunityDataset(size_t users, uint64_t seed) {
  SynthConfig config;
  config.num_users = users;
  config.seed = seed;
  return GenerateCommunity(config).ValueOrDie().dataset;
}

// The reference partition: every seed row replayed through one
// DatasetBuilder per shard, which assigns ids densely in insertion order.
std::vector<Dataset> RowReplaySlice(const Dataset& seed, size_t num_shards,
                                    ShardSliceStats* stats) {
  std::vector<DatasetBuilder> builders(num_shards);
  for (const Category& category : seed.categories()) {
    for (DatasetBuilder& builder : builders) {
      builder.AddCategory(category.name);
    }
  }
  for (const User& user : seed.users()) {
    builders[ShardOfUser(user.id.value(), num_shards)].AddUser(user.name);
  }
  for (const Object& object : seed.objects()) {
    for (DatasetBuilder& builder : builders) {
      WOT_CHECK_OK(builder.AddObject(object.category, object.name).status());
    }
  }
  std::vector<size_t> review_shard(seed.num_reviews());
  std::vector<ReviewId> review_local(seed.num_reviews());
  for (const Review& review : seed.reviews()) {
    const size_t shard = ShardOfUser(review.writer.value(), num_shards);
    review_shard[review.id.index()] = shard;
    review_local[review.id.index()] =
        builders[shard]
            .AddReview(UserId(ShardLocalUser(review.writer.value(),
                                             num_shards)),
                       review.object)
            .ValueOrDie();
  }
  *stats = ShardSliceStats();
  for (const ReviewRating& rating : seed.ratings()) {
    const size_t shard = ShardOfUser(rating.rater.value(), num_shards);
    if (review_shard[rating.review.index()] != shard) {
      ++stats->ratings_dropped;
      continue;
    }
    WOT_CHECK_OK(builders[shard].AddRating(
        UserId(ShardLocalUser(rating.rater.value(), num_shards)),
        review_local[rating.review.index()], rating.value));
  }
  for (const TrustStatement& statement : seed.trust_statements()) {
    const size_t shard = ShardOfUser(statement.source.value(), num_shards);
    if (ShardOfUser(statement.target.value(), num_shards) != shard) {
      ++stats->trust_statements_dropped;
      continue;
    }
    WOT_CHECK_OK(builders[shard].AddTrust(
        UserId(ShardLocalUser(statement.source.value(), num_shards)),
        UserId(ShardLocalUser(statement.target.value(), num_shards))));
  }
  std::vector<Dataset> slices;
  for (DatasetBuilder& builder : builders) {
    slices.push_back(builder.Build().ValueOrDie());
  }
  return slices;
}

TEST(DatasetShardTest, ColumnPartitionEqualsRowReplay) {
  const Dataset seed = SynthCommunityDataset(90, 17);
  for (size_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(num_shards));
    ShardSliceStats expected_stats;
    const std::vector<Dataset> expected =
        RowReplaySlice(seed, num_shards, &expected_stats);
    ShardSliceStats stats;
    const std::vector<Dataset> slices =
        SliceDatasetByUser(seed, num_shards, &stats).ValueOrDie();
    ASSERT_EQ(slices.size(), expected.size());
    for (size_t s = 0; s < num_shards; ++s) {
      EXPECT_EQ(testing::DatasetDiff(slices[s], expected[s]), "")
          << "shard " << s;
    }
    EXPECT_EQ(stats.ratings_dropped, expected_stats.ratings_dropped);
    EXPECT_EQ(stats.trust_statements_dropped,
              expected_stats.trust_statements_dropped);
    if (num_shards > 1) {
      EXPECT_GT(stats.ratings_dropped, 0u);
    }
  }
}

TEST(DatasetShardTest, IdMapsAreInverse) {
  for (size_t num_shards : {1u, 2u, 3u, 7u}) {
    for (uint64_t global = 0; global < 50; ++global) {
      size_t shard = ShardOfUser(global, num_shards);
      uint32_t local = ShardLocalUser(global, num_shards);
      EXPECT_LT(shard, num_shards);
      EXPECT_EQ(GlobalUserOfShard(local, shard, num_shards),
                static_cast<int64_t>(global));
    }
  }
}

TEST(DatasetShardTest, SingleShardReproducesTheSeedExactly) {
  Dataset seed = SynthCommunityDataset(60, 11);
  ShardSliceStats stats;
  std::vector<Dataset> slices =
      SliceDatasetByUser(seed, 1, &stats).ValueOrDie();
  ASSERT_EQ(slices.size(), 1u);
  const Dataset& slice = slices[0];
  EXPECT_EQ(stats.ratings_dropped, 0u);
  EXPECT_EQ(stats.trust_statements_dropped, 0u);
  ASSERT_EQ(slice.num_users(), seed.num_users());
  ASSERT_EQ(slice.num_categories(), seed.num_categories());
  ASSERT_EQ(slice.num_objects(), seed.num_objects());
  ASSERT_EQ(slice.num_reviews(), seed.num_reviews());
  ASSERT_EQ(slice.num_ratings(), seed.num_ratings());
  ASSERT_EQ(slice.num_trust_statements(), seed.num_trust_statements());
  for (size_t u = 0; u < seed.num_users(); ++u) {
    UserId id(static_cast<uint32_t>(u));
    EXPECT_EQ(slice.user(id).name, seed.user(id).name);
  }
  for (size_t r = 0; r < seed.num_reviews(); ++r) {
    ReviewId id(static_cast<uint32_t>(r));
    EXPECT_EQ(slice.review(id).writer, seed.review(id).writer);
    EXPECT_EQ(slice.review(id).object, seed.review(id).object);
  }
  for (size_t r = 0; r < seed.num_ratings(); ++r) {
    EXPECT_EQ(slice.ratings()[r].rater, seed.ratings()[r].rater);
    EXPECT_EQ(slice.ratings()[r].review, seed.ratings()[r].review);
    EXPECT_EQ(slice.ratings()[r].value, seed.ratings()[r].value);
  }
}

TEST(DatasetShardTest, RoundRobinPartitionWithReplicatedContext) {
  Dataset seed = SynthCommunityDataset(53, 29);
  constexpr size_t kShards = 3;
  ShardSliceStats stats;
  std::vector<Dataset> slices =
      SliceDatasetByUser(seed, kShards, &stats).ValueOrDie();
  ASSERT_EQ(slices.size(), kShards);

  // Users partition round-robin with names preserved at local slots.
  size_t total_users = 0;
  for (const Dataset& slice : slices) total_users += slice.num_users();
  EXPECT_EQ(total_users, seed.num_users());
  for (size_t g = 0; g < seed.num_users(); ++g) {
    const Dataset& slice = slices[ShardOfUser(g, kShards)];
    uint32_t local = ShardLocalUser(g, kShards);
    ASSERT_LT(local, slice.num_users());
    EXPECT_EQ(slice.user(UserId(local)).name,
              seed.user(UserId(static_cast<uint32_t>(g))).name);
  }

  // Categories and objects are replicated with identical id spaces.
  for (const Dataset& slice : slices) {
    ASSERT_EQ(slice.num_categories(), seed.num_categories());
    ASSERT_EQ(slice.num_objects(), seed.num_objects());
    for (size_t o = 0; o < seed.num_objects(); ++o) {
      ObjectId id(static_cast<uint32_t>(o));
      EXPECT_EQ(slice.object(id).name, seed.object(id).name);
      EXPECT_EQ(slice.object(id).category, seed.object(id).category);
    }
  }

  // Every review lives on its writer's shard; totals are preserved.
  size_t total_reviews = 0;
  for (const Dataset& slice : slices) {
    total_reviews += slice.num_reviews();
    for (const Review& review : slice.reviews()) {
      ASSERT_LT(review.writer.index(), slice.num_users());
    }
  }
  EXPECT_EQ(total_reviews, seed.num_reviews());

  // Ratings: kept iff rater and review-writer co-shard; the drop count
  // matches a direct recomputation over the seed.
  size_t expected_dropped = 0;
  for (const ReviewRating& rating : seed.ratings()) {
    const Review& review = seed.review(rating.review);
    if (ShardOfUser(rating.rater.value(), kShards) !=
        ShardOfUser(review.writer.value(), kShards)) {
      ++expected_dropped;
    }
  }
  EXPECT_GT(expected_dropped, 0u);  // a real community always crosses
  EXPECT_EQ(stats.ratings_dropped, expected_dropped);
  size_t total_ratings = 0;
  for (const Dataset& slice : slices) {
    total_ratings += slice.num_ratings();
    // Referential integrity within the slice: every kept rating points
    // at a slice-local review.
    for (const ReviewRating& rating : slice.ratings()) {
      ASSERT_LT(rating.review.index(), slice.num_reviews());
      ASSERT_LT(rating.rater.index(), slice.num_users());
    }
  }
  EXPECT_EQ(total_ratings + stats.ratings_dropped, seed.num_ratings());
}

TEST(DatasetShardTest, MoreShardsThanUsersYieldsEmptyShards) {
  Dataset seed = testing::TinyCommunity();  // 4 users
  std::vector<Dataset> slices =
      SliceDatasetByUser(seed, 6).ValueOrDie();
  ASSERT_EQ(slices.size(), 6u);
  size_t total_users = 0;
  size_t empty_shards = 0;
  for (const Dataset& slice : slices) {
    total_users += slice.num_users();
    if (slice.num_users() == 0) {
      ++empty_shards;
      EXPECT_EQ(slice.num_reviews(), 0u);
      EXPECT_EQ(slice.num_ratings(), 0u);
    }
    // Context is replicated even onto user-less shards.
    EXPECT_EQ(slice.num_categories(), seed.num_categories());
    EXPECT_EQ(slice.num_objects(), seed.num_objects());
  }
  EXPECT_EQ(total_users, seed.num_users());
  EXPECT_EQ(empty_shards, 2u);
}

TEST(DatasetShardTest, ZeroShardsIsInvalidArgument) {
  EXPECT_FALSE(SliceDatasetByUser(testing::TinyCommunity(), 0).ok());
}

}  // namespace
}  // namespace wot
