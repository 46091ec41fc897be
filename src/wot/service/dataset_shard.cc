#include "wot/service/dataset_shard.h"

#include <utility>

#include "wot/community/dataset_builder.h"

namespace wot {

Result<std::vector<Dataset>> SliceDatasetByUser(Dataset seed,
                                                size_t num_shards,
                                                ShardSliceStats* stats) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(num_shards));
  }
  std::vector<Dataset> slices;
  if (num_shards == 1) {
    if (stats != nullptr) *stats = ShardSliceStats();
    slices.push_back(std::move(seed));
    return slices;
  }

  // Per-shard columns. Ids are left for FromValidatedColumns to assign
  // densely from column order, which is seed order within each shard.
  struct Columns {
    std::vector<User> users;
    std::vector<Review> reviews;
    std::vector<ReviewRating> ratings;
    std::vector<TrustStatement> trust;
  };
  std::vector<Columns> shards(num_shards);
  for (const User& user : seed.users()) {
    shards[ShardOfUser(user.id.value(), num_shards)].users.push_back(
        {UserId(), user.name});
  }

  // Reviews land on their writer's shard, renumbered densely in seed
  // order; remember the mapping so ratings can follow them.
  std::vector<uint32_t> review_local(seed.num_reviews(), 0);
  for (const Review& review : seed.reviews()) {
    Columns& shard = shards[ShardOfUser(review.writer.value(), num_shards)];
    review_local[review.id.index()] =
        static_cast<uint32_t>(shard.reviews.size());
    shard.reviews.push_back(
        {ReviewId(), UserId(ShardLocalUser(review.writer.value(), num_shards)),
         review.object, review.category});
  }

  // Ratings and trust statements stay iff both endpoints co-shard.
  ShardSliceStats dropped;
  for (const ReviewRating& rating : seed.ratings()) {
    const size_t shard = ShardOfUser(rating.rater.value(), num_shards);
    const UserId writer = seed.review(rating.review).writer;
    if (ShardOfUser(writer.value(), num_shards) != shard) {
      ++dropped.ratings_dropped;
      continue;
    }
    shards[shard].ratings.push_back(
        {UserId(ShardLocalUser(rating.rater.value(), num_shards)),
         ReviewId(review_local[rating.review.index()]), rating.value});
  }
  for (const TrustStatement& statement : seed.trust_statements()) {
    const size_t shard = ShardOfUser(statement.source.value(), num_shards);
    if (ShardOfUser(statement.target.value(), num_shards) != shard) {
      ++dropped.trust_statements_dropped;
      continue;
    }
    shards[shard].trust.push_back(
        {UserId(ShardLocalUser(statement.source.value(), num_shards)),
         UserId(ShardLocalUser(statement.target.value(), num_shards))});
  }

  // Categories and objects are replicated context: identical id spaces on
  // every shard.
  slices.reserve(num_shards);
  for (Columns& shard : shards) {
    WOT_ASSIGN_OR_RETURN(
        Dataset slice,
        DatasetBuilder::FromValidatedColumns(
            seed.categories(), std::move(shard.users), seed.objects(),
            std::move(shard.reviews), std::move(shard.ratings),
            std::move(shard.trust)));
    slices.push_back(std::move(slice));
  }
  if (stats != nullptr) *stats = dropped;
  return slices;
}

}  // namespace wot
