// ShardRouter: the v1 wire protocol served from N TrustService shards.
//
// A second Frontend implementation (next to ServiceFrontend) that owns N
// independent TrustService shards over a round-robin user partition
// (wot/service/dataset_shard.h) and routes/aggregates so clients keep
// speaking the UNCHANGED protocol in GLOBAL ids:
//
//   * trust / explain / user-ref resolution route to one shard: an index
//     ref g belongs to shard g % N (as local user g / N); a name ref is
//     probed across shard snapshots in shard order. A pair of users on
//     different shards answers NOT_FOUND — v1 derives trust within one
//     shard's user slice (trust localizes to co-rating neighborhoods).
//   * topk scatter-gathers: every shard hosting the source contributes
//     its local top-k list; the router maps hits to global ids, merges by
//     (score desc, global id asc) and truncates to k. Shards without the
//     source (including empty shards) contribute nothing.
//   * ingest routes by user: ingest_user round-robins (preserving the
//     dense global id space), reviews/ratings land on the writer's/
//     rater's shard (wire review id = local * N + shard), while
//     categories and objects fan out to every shard so the replicated
//     context id spaces stay aligned.
//   * commit fans out to every shard and bumps the router-level epoch
//     only after ALL shards swapped, so no reader of the epoch (stats,
//     commit responses) ever observes a torn cross-shard commit.
//   * stats aggregates: entity counts summed over shard snapshots,
//     service_boots = N, plus additive per-shard fields (`shards`,
//     `shard_service_boots`, `shard_requests_served`) when N >= 2.
//
// THE load-bearing invariant (property-tested in
// tests/api/shard_router_property_test.cc): a ShardRouter with ONE shard
// is bit-identical, response for response, to a bare ServiceFrontend over
// the same seed — including every error message and the stats frame.
// The router therefore never special-cases N == 1; the generic
// resolve/scatter/merge path must degenerate exactly.
//
// Thread contract: same as any Frontend. Queries are lock-free against
// per-shard published snapshots; ingest and commit serialize on a
// router-level mutex (global id assignment and cross-shard fan-outs must
// be atomic with respect to each other). The shards are router-owned:
// ingesting into a shard's TrustService directly would break the dense
// round-robin id invariant.
#ifndef WOT_API_SHARD_ROUTER_H_
#define WOT_API_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "wot/api/frontend.h"
#include "wot/api/replica_handle.h"
#include "wot/community/dataset.h"
#include "wot/service/dataset_shard.h"
#include "wot/service/trust_service.h"
#include "wot/service/trust_snapshot.h"
#include "wot/util/thread_annotations.h"
#include "wot/util/thread_pool.h"

namespace wot {
namespace api {

class ShardRouter : public Frontend, private ReplicationHandler {
 public:
  /// \brief Slices \p seed across \p num_shards TrustService shards
  /// (round-robin by user index; see wot/service/dataset_shard.h) and
  /// boots one service per shard. Epoch 1 = every shard serving its
  /// initial snapshot.
  static Result<std::unique_ptr<ShardRouter>> Create(
      Dataset seed, size_t num_shards,
      const TrustServiceOptions& options = {});

  /// \brief Adopts already booted shard services (the durable recovery
  /// path: each shard came back from its own storage directory). The
  /// services must hold a round-robin user partition exactly as Create
  /// would have produced — i.e. they ARE the services a durable router
  /// persisted, in shard order. The router-level epoch starts at 1;
  /// call RestoreEpoch with the persisted value afterwards.
  static Result<std::unique_ptr<ShardRouter>> CreateFromServices(
      std::vector<std::unique_ptr<TrustService>> services);

  /// \brief Restores the router-level commit epoch after a recovery.
  /// Call before serving traffic.
  void RestoreEpoch(uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }

  /// \brief Installs a hook invoked after every commit that bumps the
  /// epoch (under the ingest lock, post-store — the value is already
  /// visible to readers). Durable servers persist the epoch from it.
  /// Call before serving traffic; pass nullptr to clear.
  void SetEpochCallback(std::function<void(uint64_t)> callback)
      WOT_EXCLUDES(ingest_mu_) {
    MutexLock lock(ingest_mu_);
    epoch_callback_ = std::move(callback);
  }

  size_t num_shards() const { return shards_.size(); }

  /// \brief Registers a replica of shard \p shard. Point reads and topk
  /// scatter legs load-balance across a shard's replicas whose applied
  /// version has reached the shard's read floor (the version the last
  /// epoch bump published — the staleness gate that keeps the commit-
  /// visibility guarantee); commits always go to the primary. The first
  /// AddReplica also attaches the router's own ReplicationHandler so
  /// `repl_status` reports the replica sets; a handler attached earlier
  /// (a sharded primary's ReplicationSource) is kept as the `repl_fetch`
  /// delegate, so the same process can feed its own followers. NOT
  /// thread-safe against serving traffic: register replicas before
  /// dispatching.
  void AddReplica(size_t shard, std::shared_ptr<ReplicaHandle> handle);

  /// \brief Copies of each commit required per shard — the primary plus
  /// replicas whose applied version reached the committed one — before
  /// the router epoch bump publishes the commit. The default 1 is
  /// satisfied by the primary alone and is property-tested bit-identical
  /// to the pre-replication router. Quorums above 1 + the configured
  /// replica count can never be met and fail every commit at the
  /// timeout. Thread-safe.
  void set_write_quorum(int64_t quorum) {
    write_quorum_.store(quorum < 1 ? 1 : quorum,
                        std::memory_order_relaxed);
  }

  /// \brief How long a commit waits for the write quorum before
  /// answering INTERNAL (without bumping the epoch — the commit is
  /// durable on the primaries and a later commit publishes it).
  void set_quorum_timeout_millis(int64_t millis) {
    quorum_timeout_millis_.store(millis < 0 ? 0 : millis,
                                 std::memory_order_relaxed);
  }

  /// \brief Forces commit fan-out and topk scatter onto the serial
  /// per-shard loop (the pre-pool behavior). A benchmarking / debugging
  /// knob — results are identical either way, only latency differs.
  /// Thread-safe.
  void set_parallel_fanout(bool enabled) {
    parallel_fanout_.store(enabled, std::memory_order_relaxed);
  }

  /// \brief Shard \p shard's service, for inspection (tests, stats
  /// tooling). Do NOT ingest through it — write traffic must go through
  /// Dispatch so the global id space stays dense.
  TrustService* shard_service(size_t shard) const {
    return shards_[shard]->service.get();
  }

  /// \brief The router-level commit epoch: 1 at boot, +1 per commit that
  /// published on at least one shard, bumped only after every shard
  /// swapped.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// service_boots aggregates the per-shard boots (= num_shards).
  FrontendStats stats() const override;

  /// The router-level commit epoch (stamped on metrics responses and
  /// slow-log lines).
  uint64_t TelemetryEpoch() const override { return epoch(); }

 protected:
  Response DispatchPayload(const Request& request,
                           const ConnectionContext& connection) override;

 private:
  /// One registered replica and the router's cached view of it (updated
  /// by Poll during quorum waits and staleness refreshes).
  struct ReplicaSlot {
    std::shared_ptr<ReplicaHandle> handle;
    std::atomic<uint64_t> applied{0};
    std::atomic<bool> healthy{true};
    /// replication.replica_applied.s<shard>.r<index> (router registry).
    telemetry::Gauge* applied_gauge = nullptr;
  };

  struct Shard {
    std::unique_ptr<TrustService> service;
    std::unique_ptr<ServiceFrontend> frontend;
    /// Requests the router dispatched to this shard (fan-outs count on
    /// every shard touched): router.shard_requests.s<shard>, which the
    /// stats method reports as shard_requests_served.
    telemetry::Counter* dispatches = nullptr;
    /// Replicas of this shard (append-only, fixed before serving).
    std::vector<std::unique_ptr<ReplicaSlot>> replicas;
    /// The shard-local snapshot version the last router epoch bump
    /// published: replicas below it are too stale to serve reads.
    std::atomic<uint64_t> read_floor{0};
    /// Round-robin cursor over {replicas..., primary}.
    std::atomic<uint64_t> next_read{0};
  };

  /// A user ref resolved to its owning shard.
  struct ResolvedUser {
    size_t shard = 0;
    uint32_t local = 0;
    bool by_index = false;  // ref was a decimal global index
  };

  ShardRouter() = default;

  /// Resolves the router's own instruments (router.fanout_latency_ns,
  /// router.scatter_width) and registers every shard service's registry
  /// as a scrape source, so shard-level commit/WAL timings surface in
  /// the router's metrics responses. Both factories call it once the
  /// shard set is final.
  void InitTelemetry();

  using SnapshotSet =
      std::vector<std::shared_ptr<const TrustSnapshot>>;
  SnapshotSet LoadSnapshots() const;

  /// Resolves \p ref against the published shard snapshots: a decimal ref
  /// is range-checked against the summed user count and mapped by
  /// arithmetic; a name is probed shard by shard (first hit wins). Error
  /// statuses match ResolveUserRef byte for byte so one shard degenerates
  /// exactly.
  Result<ResolvedUser> ResolvePublished(const SnapshotSet& snapshots,
                                        std::string_view ref) const;

  /// The staged-side (ingest) counterpart, resolving against what the
  /// shards have staged.
  Result<ResolvedUser> ResolveStagedLocked(std::string_view ref)
      WOT_REQUIRES(ingest_mu_);

  /// Counts a routed request on \p shard and returns its frontend.
  ServiceFrontend* Touch(size_t shard);

  Response RouteTrustLike(const Request& request,
                          const ConnectionContext& connection,
                          std::string_view source_ref,
                          std::string_view target_ref);

  /// \brief Runs body(s) for every shard index, over the router pool when
  /// it exists (2+ shards), serially otherwise. Blocks until every
  /// iteration completed — per-call completion tracking, so concurrent
  /// dispatches never wait on each other's fan-outs.
  void RunOnShards(const std::function<void(size_t)>& body);

  /// \brief Picks an eligible replica of \p shard for one read, round-
  /// robin over {replicas, primary}: a replica whose cached (refreshed
  /// when stale) applied version has reached the shard's read floor and
  /// that is healthy. nullptr means "serve from the primary".
  ReplicaSlot* PickReplica(size_t shard);

  /// \brief One Poll() on \p slot, refreshing the cached applied version,
  /// health and the per-replica gauge.
  ReplicaProbe Probe(ReplicaSlot* slot);

  /// \brief Blocks until every shard's post-commit snapshot version has
  /// been applied by write_quorum copies (primary included), or the
  /// quorum timeout elapses. Records router.quorum_wait_ns. Immediate
  /// OK (no polls, no samples) when the quorum is 1.
  ApiStatus AwaitWriteQuorum();

  /// \brief Dispatches one shard-local read to an eligible replica,
  /// falling back to the primary on transport failure or replica error.
  Response DispatchShardRead(size_t shard, const Request& local,
                             const ConnectionContext& connection);

  // The router's ReplicationHandler face (attached by AddReplica):
  // repl_status reports the replica sets; repl_fetch forwards to the
  // delegate (the process's ReplicationSource) when one was attached
  // before the first AddReplica; promote belongs to replica processes.
  Response HandleReplFetch(const ReplFetchRequest& request) override;
  Response HandleReplStatus(const ReplStatusRequest& request) override;
  Response HandleReplPromote(const ReplPromoteRequest& request) override;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// The handler AddReplica displaced — the serving process's own
  /// ReplicationSource, which keeps answering repl_fetch through the
  /// router. Written only by AddReplica (before serving traffic).
  ReplicationHandler* fetch_delegate_ = nullptr;

  /// Fan-out workers (commit fan-out, topk scatter); null with one shard
  /// — the serial path is the bit-identity baseline.
  std::unique_ptr<ThreadPool> pool_;

  /// set_parallel_fanout: false pins RunOnShards to the serial loop.
  std::atomic<bool> parallel_fanout_{true};

  // Router-level instruments (resolved once in InitTelemetry; the base
  // registry outlives them).
  telemetry::LatencyHistogram* fanout_latency_ns_ = nullptr;
  telemetry::LatencyHistogram* scatter_width_ = nullptr;
  telemetry::LatencyHistogram* quorum_wait_ns_ = nullptr;
  telemetry::Counter* replica_reads_ = nullptr;

  std::atomic<int64_t> write_quorum_{1};
  std::atomic<int64_t> quorum_timeout_millis_{2000};
  /// Sleep slot for the quorum poll loop (nothing signals it; the wait
  /// is a bounded doze between polls).
  Mutex quorum_mu_;
  CondVar quorum_cv_;

  // Ingest state: guarded by ingest_mu_. The router is the sole authority
  // over the global user id space.
  Mutex ingest_mu_;
  int64_t staged_global_users_ WOT_GUARDED_BY(ingest_mu_) = 0;
  std::function<void(uint64_t)> epoch_callback_
      WOT_GUARDED_BY(ingest_mu_);

  std::atomic<uint64_t> epoch_{1};
};

}  // namespace api
}  // namespace wot

#endif  // WOT_API_SHARD_ROUTER_H_
