// Shard-local dataset slicing: the data side of serving one community
// from N TrustService shards (see wot/api/shard_router.h).
//
// Users are partitioned ROUND-ROBIN by their global index: global user g
// lives on shard g % N as shard-local user g / N. The scheme is chosen so
// the global id space stays dense under router-driven ingest (the router
// assigns global ids in order, so every shard's local ids stay dense and
// the global<->local maps are pure arithmetic — no directory to keep
// consistent). Categories and objects are REPLICATED to every shard with
// identical ids: they are context, not participants, and replication
// keeps cross-shard id spaces aligned so the router can fan object and
// category ingest out without translation.
//
// Reviews live on their writer's shard (renumbered densely per shard);
// ratings live on their rater's shard and are kept only when the rated
// review lives there too. A seed rating whose rater and review-writer
// land on different shards is DROPPED: per-shard reputation derives trust
// within one user slice (the paper's trust computation localizes to
// co-rating neighborhoods; see docs/wire_protocol.md, "Sharded serving").
// Trust statements follow the same rule. Slicing with num_shards == 1
// reproduces the seed dataset exactly.
#ifndef WOT_SERVICE_DATASET_SHARD_H_
#define WOT_SERVICE_DATASET_SHARD_H_

#include <cstdint>
#include <vector>

#include "wot/community/dataset.h"
#include "wot/util/result.h"

namespace wot {

/// \brief Shard owning global user \p global under \p num_shards.
inline size_t ShardOfUser(uint64_t global, size_t num_shards) {
  return static_cast<size_t>(global % num_shards);
}

/// \brief Shard-local index of global user \p global.
inline uint32_t ShardLocalUser(uint64_t global, size_t num_shards) {
  return static_cast<uint32_t>(global / num_shards);
}

/// \brief Global index of shard \p shard's local user \p local.
inline int64_t GlobalUserOfShard(uint32_t local, size_t shard,
                                 size_t num_shards) {
  return static_cast<int64_t>(local) * static_cast<int64_t>(num_shards) +
         static_cast<int64_t>(shard);
}

/// \brief What SliceDatasetByUser dropped (activity spanning two shards).
struct ShardSliceStats {
  size_t ratings_dropped = 0;
  size_t trust_statements_dropped = 0;
};

/// \brief Splits \p seed into \p num_shards per-shard datasets under the
/// partition documented above, by partitioning its columns directly (no
/// policy checks: each shard's TrustService::Create enforces its own).
/// With one shard the seed itself is returned. Emits one dataset per
/// shard (possibly with zero users when num_shards exceeds the seed
/// population); \p stats, when given, receives the cross-shard drop
/// counts.
Result<std::vector<Dataset>> SliceDatasetByUser(
    Dataset seed, size_t num_shards, ShardSliceStats* stats = nullptr);

}  // namespace wot

#endif  // WOT_SERVICE_DATASET_SHARD_H_
