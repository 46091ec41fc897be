// Unit tests for the replication layer: segment bootstrap, WAL-delta
// catch-up (the per-epoch cursor walk), restart-resume from the
// replica's own directory, retention fall-behind, the ReplicaFrontend
// write gate, promotion, and a promoted replica serving repl_fetch to a
// chained follower. Everything runs in process over LoopbackClient so
// each step is deterministic.
#include "wot/replication/replica_service.h"

#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "gtest/gtest.h"
#include "storage/storage_test_util.h"
#include "testing/fixtures.h"
#include "wot/api/client.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/api/shard_router.h"
#include "wot/replication/replica_frontend.h"
#include "wot/replication/replication_source.h"
#include "wot/storage/durable_boot.h"
#include "wot/storage/segment.h"
#include "wot/storage/storage_manager.h"
#include "wot/synth/generator.h"

namespace wot {
namespace replication {
namespace {

using storage::testing::FreshDir;
using wot::testing::TinyCommunity;

std::function<Result<Dataset>()> TinySeed() {
  return [] { return Result<Dataset>(TinyCommunity()); };
}

api::Request MakeRequest(int64_t id, api::RequestPayload payload) {
  api::Request request;
  request.id = id;
  request.payload = std::move(payload);
  return request;
}

/// A durable primary with a ReplicationSource attached to its frontend.
struct PrimaryStack {
  storage::DurableService durable;
  std::unique_ptr<ReplicationSource> source;
  api::Frontend* frontend() { return durable.frontend; }
};

PrimaryStack MakePrimary(const std::string& dir,
                         storage::StorageOptions storage_options,
                         size_t num_shards = 1) {
  storage::DurableBootOptions options;
  options.storage = storage_options;
  options.num_shards = num_shards;
  PrimaryStack stack;
  stack.durable =
      storage::BootDurable(dir, TinySeed(), options).ValueOrDie();
  ReplicationSource::VersionProvider provider;
  if (stack.durable.router != nullptr) {
    api::ShardRouter* router = stack.durable.router.get();
    provider = [router](int64_t shard) {
      return router->shard_service(static_cast<size_t>(shard))
          ->Snapshot()
          ->version();
    };
  } else {
    TrustService* service = stack.durable.service.get();
    provider = [service](int64_t) { return service->Snapshot()->version(); };
  }
  stack.source = std::make_unique<ReplicationSource>(dir, num_shards,
                                                     std::move(provider));
  stack.durable.frontend->set_replication_handler(stack.source.get());
  return stack;
}

storage::StorageOptions NoSync() {
  storage::StorageOptions options;
  options.fsync = storage::FsyncPolicy::kOff;
  return options;
}

std::unique_ptr<ReplicaService> MakeReplica(const std::string& dir,
                                            api::Frontend* upstream,
                                            int64_t shard = 0) {
  auto client = std::make_unique<api::LoopbackClient>(
      upstream, /*through_codec=*/true, api::WireProtocol::kBinary);
  ReplicaOptions options;
  options.shard = shard;
  options.storage.fsync = storage::FsyncPolicy::kOff;
  return ReplicaService::Create(dir, std::move(client), options)
      .ValueOrDie();
}

/// One publishing commit round on \p frontend: a fresh (rater, review)
/// rating then commit. \p round picks distinct pairs.
void CommitRound(api::Frontend* frontend, int round) {
  static constexpr struct {
    const char* rater;
    int64_t review;
    double value;
  } kRounds[] = {{"1", 0, 0.2}, {"3", 1, 0.4}, {"3", 2, 0.8},
                 {"2", 0, 0.6}, {"0", 1, 1.0}};
  ASSERT_LT(round, 5);
  api::IngestRating rating;
  rating.rater = kRounds[round].rater;
  rating.review = kRounds[round].review;
  rating.value = kRounds[round].value;
  api::Response ack =
      frontend->Dispatch(MakeRequest(9000 + round * 2, rating));
  ASSERT_TRUE(ack.status.ok()) << ack.status.message;
  ack = frontend->Dispatch(
      MakeRequest(9001 + round * 2, api::CommitRequest{}));
  ASSERT_TRUE(ack.status.ok()) << ack.status.message;
}

/// Byte-compares the full query surface of two frontends.
void ExpectSameSurface(api::Frontend* expected, api::Frontend* actual,
                       size_t users) {
  int64_t id = 50000;
  for (size_t i = 0; i < users; ++i) {
    for (size_t j = 0; j < users; ++j) {
      api::TrustQuery query;
      query.source = std::to_string(i);
      query.target = std::to_string(j);
      api::Request request = MakeRequest(++id, query);
      ASSERT_EQ(api::EncodeResponse(expected->Dispatch(request)),
                api::EncodeResponse(actual->Dispatch(request)));
    }
    api::TopKQuery topk;
    topk.source = std::to_string(i);
    topk.k = static_cast<int64_t>(users);
    api::Request request = MakeRequest(++id, topk);
    ASSERT_EQ(api::EncodeResponse(expected->Dispatch(request)),
              api::EncodeResponse(actual->Dispatch(request)));
  }
}

TEST(ReplicationTest, BootstrapFromSegmentIsBitIdentical) {
  PrimaryStack primary = MakePrimary(FreshDir("repl_boot_p"), NoSync());
  std::unique_ptr<ReplicaService> replica =
      MakeReplica(FreshDir("repl_boot_r"), primary.frontend());
  EXPECT_EQ(replica->service(), nullptr);  // nothing until the first pull
  ASSERT_TRUE(replica->CatchUp().ok());
  ASSERT_NE(replica->service(), nullptr);
  EXPECT_EQ(replica->applied_version(), 1u);
  EXPECT_EQ(replica->role(), api::ReplRole::kReplica);
  api::ServiceFrontend mirror(replica->service());
  ExpectSameSurface(primary.frontend(), &mirror, 4);
}

TEST(ReplicationTest, SegmentChunksConcatenateToTheFile) {
  const std::string dir = FreshDir("repl_segment_chunks");
  SynthConfig config;
  config.seed = 7;
  config.num_users = 800;
  std::unique_ptr<TrustService> service =
      TrustService::Create(GenerateCommunity(config).ValueOrDie().dataset)
          .ValueOrDie();
  const std::string path = storage::SegmentPath(dir, 1);
  ASSERT_TRUE(storage::WriteSegment(path, *service->Snapshot(),
                                    service->staged_dataset())
                  .ok());
  const std::string file = storage::testing::Slurp(path);
  constexpr uint64_t kChunk = ReplicationSource::kMaxChunkBytes;
  ASSERT_GT(file.size(), 2 * kChunk);
  ASSERT_NE(file.size() % kChunk, 0u);  // the last chunk is short

  ReplicationSource source(dir, 1, [](int64_t) { return uint64_t{1}; });
  auto fetch = [&source](uint64_t offset) {
    api::ReplFetchRequest request;
    request.offset = offset;
    return source.HandleReplFetch(request);
  };
  std::string shipped;
  for (;;) {
    const uint64_t offset = shipped.size();
    api::Response response = fetch(offset);
    ASSERT_TRUE(response.status.ok()) << response.status.message;
    const auto* result =
        std::get_if<api::ReplFetchResult>(&response.payload);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->kind,
              static_cast<int64_t>(api::ReplArtifactKind::kSegment));
    EXPECT_EQ(result->offset, offset);
    EXPECT_EQ(result->total_bytes, file.size());
    EXPECT_EQ(result->payload.size(),
              std::min<uint64_t>(kChunk, file.size() - offset));
    if (offset == file.size()) break;
    shipped += result->payload;
  }
  EXPECT_TRUE(shipped == file);

  api::Response beyond = fetch(file.size() + 1);
  EXPECT_EQ(beyond.status.code, api::ApiCode::kInvalidArgument);
}

TEST(ReplicationTest, EpochWalkAppliesOneWalPerStepAndReportsLag) {
  storage::StorageOptions options = NoSync();
  // Synchronous rotation + a wide retention window: every epoch's wal
  // file survives, so the per-epoch cursor walk below is deterministic.
  options.background_rotation = false;
  options.keep_segments = 10;
  PrimaryStack primary =
      MakePrimary(FreshDir("repl_walk_p"), options);
  std::unique_ptr<ReplicaService> replica =
      MakeReplica(FreshDir("repl_walk_r"), primary.frontend());
  ASSERT_TRUE(replica->CatchUp().ok());
  ASSERT_EQ(replica->applied_version(), 1u);

  // Two more primary epochs: the commit-v2 record lands in wal-1 (the
  // rotation then opens wal-2), commit-v3 in wal-2.
  CommitRound(primary.frontend(), 0);
  CommitRound(primary.frontend(), 1);

  // Step 1 consumes wal-1: applied 2, source already at 3 -> lag 1.
  Result<bool> step = replica->Step();
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_TRUE(step.ValueOrDie());
  EXPECT_EQ(replica->applied_version(), 2u);
  EXPECT_EQ(replica->source_version(), 3u);
  EXPECT_EQ(replica->metrics_registry()->gauge("replication.lag_epochs")
                ->Value(),
            1);

  // The metrics wire method reports the same non-zero lag.
  api::ServiceFrontend inner(replica->service());
  ReplicaFrontend frontend(&inner, replica.get());
  api::Response scraped =
      frontend.Dispatch(MakeRequest(1, api::MetricsRequest{}));
  ASSERT_TRUE(scraped.status.ok());
  const api::MetricsResult& metrics =
      std::get<api::MetricsResult>(scraped.payload);
  bool saw_lag = false;
  for (const api::MetricValue& gauge : metrics.gauges) {
    if (gauge.name == "replication.lag_epochs") {
      saw_lag = true;
      EXPECT_EQ(gauge.value, 1);
    }
  }
  EXPECT_TRUE(saw_lag);

  // Step 2 consumes wal-2; step 3 finds nothing.
  step = replica->Step();
  ASSERT_TRUE(step.ok());
  EXPECT_TRUE(step.ValueOrDie());
  EXPECT_EQ(replica->applied_version(), 3u);
  step = replica->Step();
  ASSERT_TRUE(step.ok());
  EXPECT_FALSE(step.ValueOrDie());
  EXPECT_EQ(replica->metrics_registry()->gauge("replication.lag_epochs")
                ->Value(),
            0);
  api::ServiceFrontend mirror(replica->service());
  ExpectSameSurface(primary.frontend(), &mirror, 4);
}

TEST(ReplicationTest, RestartResumesFromDeltaNeverReships) {
  PrimaryStack primary = MakePrimary(FreshDir("repl_resume_p"), NoSync());
  std::string replica_dir = FreshDir("repl_resume_r");
  {
    std::unique_ptr<ReplicaService> replica =
        MakeReplica(replica_dir, primary.frontend());
    ASSERT_TRUE(replica->CatchUp().ok());
    ASSERT_EQ(replica->applied_version(), 1u);
  }
  CommitRound(primary.frontend(), 0);
  const int64_t shipped_before =
      primary.source->metrics_registry()
          ->counter("replication.ship_bytes")
          ->Value();

  // Recreate over the SAME directory: local recovery yields a live
  // service before any fetch, and catch-up starts from the WAL cursor —
  // the source never ships a segment again.
  std::unique_ptr<ReplicaService> replica =
      MakeReplica(replica_dir, primary.frontend());
  ASSERT_NE(replica->service(), nullptr);
  EXPECT_EQ(replica->applied_version(), 1u);
  ASSERT_TRUE(replica->CatchUp().ok());
  EXPECT_EQ(replica->applied_version(), 2u);
  const int64_t shipped_delta =
      primary.source->metrics_registry()
          ->counter("replication.ship_bytes")
          ->Value() -
      shipped_before;
  // The catch-up shipped only WAL bytes: far less than the ~hundreds of
  // KiB a TinyCommunity segment re-ship would cost.
  EXPECT_GT(shipped_delta, 0);
  EXPECT_LT(shipped_delta, 4096);
  api::ServiceFrontend mirror(replica->service());
  ExpectSameSurface(primary.frontend(), &mirror, 4);
}

TEST(ReplicationTest, FallingPastRetentionFailsCleanly) {
  storage::StorageOptions options = NoSync();
  options.background_rotation = false;
  options.keep_segments = 1;  // aggressive retention: only the newest
  PrimaryStack primary = MakePrimary(FreshDir("repl_retire_p"), options);
  std::unique_ptr<ReplicaService> replica =
      MakeReplica(FreshDir("repl_retire_r"), primary.frontend());
  ASSERT_TRUE(replica->CatchUp().ok());
  ASSERT_EQ(replica->applied_version(), 1u);

  // Two epochs retire wal-1 (retention keeps only epoch >= 3's chain).
  CommitRound(primary.frontend(), 0);
  CommitRound(primary.frontend(), 1);

  Result<bool> step = replica->Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), StatusCode::kFailedPrecondition);
  // The mirrored service survives the error: readers are never yanked.
  EXPECT_NE(replica->service(), nullptr);
}

TEST(ReplicationTest, WriteGatePromotionAndMonotonicEpochs) {
  PrimaryStack primary = MakePrimary(FreshDir("repl_promote_p"), NoSync());
  CommitRound(primary.frontend(), 0);
  std::unique_ptr<ReplicaService> replica =
      MakeReplica(FreshDir("repl_promote_r"), primary.frontend());
  ASSERT_TRUE(replica->CatchUp().ok());
  ASSERT_EQ(replica->applied_version(), 2u);

  api::ServiceFrontend inner(replica->service());
  ReplicaFrontend frontend(&inner, replica.get());

  // Writes bounce off the gate with a framed error; reads pass through.
  api::IngestUser ingest;
  ingest.name = "gated";
  api::Response denied = frontend.Dispatch(MakeRequest(1, ingest));
  EXPECT_EQ(denied.status.code, api::ApiCode::kInvalidArgument);
  api::TrustQuery query;
  query.source = "0";
  query.target = "1";
  EXPECT_TRUE(frontend.Dispatch(MakeRequest(2, query)).status.ok());

  // Promote: the gate opens, the role flips, the failover is counted.
  ASSERT_TRUE(replica->Promote().ok());
  EXPECT_EQ(replica->role(), api::ReplRole::kPrimary);
  EXPECT_EQ(
      replica->metrics_registry()->counter("replication.failovers")->Value(),
      1);
  ASSERT_TRUE(frontend.Dispatch(MakeRequest(3, ingest)).status.ok());
  api::Response committed =
      frontend.Dispatch(MakeRequest(4, api::CommitRequest{}));
  ASSERT_TRUE(committed.status.ok());
  // Epochs stay strictly monotonic across the promotion: v2 -> v3.
  EXPECT_EQ(std::get<api::CommitResult>(committed.payload).snapshot_version,
            3);
  // Promote is idempotent.
  EXPECT_TRUE(replica->Promote().ok());
  EXPECT_EQ(
      replica->metrics_registry()->counter("replication.failovers")->Value(),
      1);
}

TEST(ReplicationTest, PromotedReplicaServesFetchToChainedFollower) {
  PrimaryStack primary = MakePrimary(FreshDir("repl_chain_p"), NoSync());
  CommitRound(primary.frontend(), 0);
  std::unique_ptr<ReplicaService> first =
      MakeReplica(FreshDir("repl_chain_r1"), primary.frontend());
  ASSERT_TRUE(first->CatchUp().ok());
  ASSERT_TRUE(first->Promote().ok());

  // Before promotion this would be UNIMPLEMENTED; now the first replica
  // is a full primary and a second follower bootstraps off it.
  api::ServiceFrontend first_inner(first->service());
  ReplicaFrontend first_frontend(&first_inner, first.get());
  std::unique_ptr<ReplicaService> second =
      MakeReplica(FreshDir("repl_chain_r2"), &first_frontend);
  ASSERT_TRUE(second->CatchUp().ok());
  EXPECT_EQ(second->applied_version(), first->applied_version());
  api::ServiceFrontend mirror(second->service());
  ExpectSameSurface(&first_frontend, &mirror, 4);
}

TEST(ReplicationTest, ReplicaOfAReplicaIsRefusedBeforePromotion) {
  PrimaryStack primary = MakePrimary(FreshDir("repl_refuse_p"), NoSync());
  std::unique_ptr<ReplicaService> replica =
      MakeReplica(FreshDir("repl_refuse_r"), primary.frontend());
  ASSERT_TRUE(replica->CatchUp().ok());
  api::ServiceFrontend inner(replica->service());
  ReplicaFrontend frontend(&inner, replica.get());
  api::ReplFetchRequest fetch;
  fetch.shard = 0;
  api::Response response = frontend.Dispatch(MakeRequest(1, fetch));
  EXPECT_EQ(response.status.code, api::ApiCode::kUnimplemented);
}

TEST(ReplicationTest, ShardedPrimaryServesPerShardReplicas) {
  storage::StorageOptions options = NoSync();
  PrimaryStack primary =
      MakePrimary(FreshDir("repl_shards_p"), options, /*num_shards=*/4);
  // A rating can land cross-shard under the router (and be rejected);
  // ingest a user instead — always routable — then publish.
  api::IngestUser user;
  user.name = "sharded_witness";
  api::Response ack =
      primary.frontend()->Dispatch(MakeRequest(9100, user));
  ASSERT_TRUE(ack.status.ok()) << ack.status.message;
  ack = primary.frontend()->Dispatch(
      MakeRequest(9101, api::CommitRequest{}));
  ASSERT_TRUE(ack.status.ok()) << ack.status.message;
  for (int64_t shard = 0; shard < 4; ++shard) {
    std::unique_ptr<ReplicaService> replica = MakeReplica(
        FreshDir("repl_shards_r" + std::to_string(shard)),
        primary.frontend(), shard);
    ASSERT_TRUE(replica->CatchUp().ok()) << "shard " << shard;
    TrustService* upstream = primary.durable.router
                                 ->shard_service(static_cast<size_t>(shard));
    EXPECT_EQ(replica->applied_version(),
              upstream->Snapshot()->version());
    api::ServiceFrontend expected(upstream);
    api::ServiceFrontend actual(replica->service());
    ExpectSameSurface(&expected, &actual, 4);
  }
}

}  // namespace
}  // namespace replication
}  // namespace wot
