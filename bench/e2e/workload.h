// The three wot_bench workloads, the request streams they derive from the
// benchmark seed, and the in-process oracle their served answers are
// checked against.
//
// Every workload shares one shape: an open-loop Poisson read stream over
// up to four connections plus one write cycle — [ingest_user] + 20
// ingest_rating + commit — run either after the reads or on a fixed
// period during them. Users are named by decimal global index on the
// wire, so a request stream is a pure function of (workload, seed,
// dataset).
#ifndef WOT_BENCH_E2E_WORKLOAD_H_
#define WOT_BENCH_E2E_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "wot/api/api.h"
#include "wot/api/binary_codec.h"
#include "wot/api/frontend.h"
#include "wot/api/shard_router.h"
#include "wot/community/dataset.h"
#include "wot/service/trust_service.h"
#include "wot/util/result.h"
#include "wot/util/rng.h"

namespace wot {
namespace e2e {

/// \brief When a workload's write cycles run.
enum class WriterMode {
  kTail,      // back to back, after the read phase (no concurrent reads)
  kPeriodic,  // one cycle every cycle_period_ms during the reads
};

struct WorkloadSpec {
  std::string name;
  int64_t users = 0;
  size_t shards = 1;
  api::WireProtocol wire = api::WireProtocol::kBinary;
  bool durable = false;  // --data_dir with --fsync batch
  double read_qps = 0;
  int read_connections = 1;
  double topk_share = 0;     // of reads; topk asks k = kTopK
  double explain_share = 0;  // of reads; the rest are trust
  double source_zipf = 0;    // 0 = uniform sources
  WriterMode writer = WriterMode::kTail;
  bool cycle_new_user = false;
  int cycle_ratings = 20;
  double cycle_period_ms = 0;  // kPeriodic
  int cycles_per_second = 0;   // kTail: cycles = this * seconds
  int pending_at_kill = 0;     // acked, uncommitted ratings before SIGKILL
  double warmup_seconds = 3;
  double slo_ms = 0;  // read p90 limit of the calibration ladder
};

inline constexpr int64_t kTopK = 10;

/// \brief The named workload, or nullptr.
const WorkloadSpec* FindWorkload(std::string_view name);

/// \brief The ctest smoke variant: 500 users, short phases, lower rates.
WorkloadSpec SmokeVariant(WorkloadSpec spec);

enum class OpKind : uint8_t {
  kTrust,
  kTopK,
  kExplain,
  kIngestUser,
  kIngestRating,
  kCommit,
};

inline bool IsRead(OpKind kind) { return kind <= OpKind::kExplain; }
inline bool IsIngest(OpKind kind) {
  return kind == OpKind::kIngestUser || kind == OpKind::kIngestRating;
}

/// \brief One request of a stream. Reads: a = source, b = target (global
/// user indices). kIngestUser: a = the new user's ordinal (its name is
/// derived from it). kIngestRating: a = rater, b = wire review id,
/// stage = rating stage 0..4.
struct Op {
  OpKind kind = OpKind::kTrust;
  uint8_t stage = 0;
  uint32_t a = 0;
  uint32_t b = 0;
};

/// \brief The wire request for \p op.
api::Request MakeRequest(const Op& op, int64_t id);

/// \brief A digest of everything a read response answers, bit for bit,
/// except the envelope id and the snapshot version (which the checker
/// compares separately).
uint64_t AnswerDigest(const api::Response& response);

/// \brief The snapshot version (commit epoch when sharded) a response was
/// answered at; 0 for payloads without one.
uint64_t ResponseVersion(const api::Response& response);

/// \brief Derives a workload's request stream from the seed. Reads and
/// write cycles come from independent streams, so the read sequence does
/// not depend on how many cycles ran.
class RequestGen {
 public:
  RequestGen(const WorkloadSpec& spec, const Dataset& seed_dataset,
             uint64_t seed);

  /// \brief The next read, and in \p gap the time before it in units of
  /// the mean inter-arrival time (an Exp(1) draw: Poisson arrivals at
  /// any rate).
  Op NextRead(double* gap);
  /// \brief The next write cycle: [ingest_user] + ratings + commit.
  std::vector<Op> NextCycle();
  /// \brief Acked-but-uncommitted ratings sent before the SIGKILL.
  std::vector<Op> Pending(int count);
  /// \brief A uniform trust pair (verification probes).
  Op ProbeRead();

 private:
  struct ShardView {
    std::vector<uint32_t> review_writer;  // local review -> local writer
    uint32_t users = 0;
    std::unordered_set<uint64_t> rated;  // local (rater << 32 | review)
  };

  uint32_t PickSource();
  uint32_t PickTargetNear(uint32_t source);
  Op NextRating();

  WorkloadSpec spec_;
  size_t shards_;
  uint32_t users_;
  Rng read_rng_;
  Rng write_rng_;
  Rng probe_rng_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<uint32_t> zipf_rank_to_user_;
  std::vector<ShardView> views_;
  size_t next_rating_shard_ = 0;
  uint32_t new_users_ = 0;
};

/// \brief An in-process twin of the served topology (a ServiceFrontend, or
/// a ShardRouter with the workload's shard count), booted from the same
/// dataset. Replaying the acked writes in order reproduces the served
/// state at every epoch.
class Oracle {
 public:
  static Result<std::unique_ptr<Oracle>> Boot(const WorkloadSpec& spec,
                                               const Dataset& dataset);

  api::Frontend* frontend() const { return frontend_; }
  api::ShardRouter* router() const { return router_.get(); }
  /// The service behind shard \p shard.
  TrustService* shard_service(size_t shard) const;

  api::Response Dispatch(const Op& op);

 private:
  Oracle() = default;

  std::unique_ptr<TrustService> service_;
  std::unique_ptr<api::ServiceFrontend> plain_;
  std::unique_ptr<api::ShardRouter> router_;
  api::Frontend* frontend_ = nullptr;
  int64_t next_id_ = 1;
};

}  // namespace e2e
}  // namespace wot

#endif  // WOT_BENCH_E2E_WORKLOAD_H_
