#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <variant>

#include "wot/community/entities.h"
#include "wot/service/dataset_shard.h"

namespace wot {
namespace e2e {
namespace {

std::vector<WorkloadSpec> BuildWorkloads() {
  // Rates and scales were calibrated on a 4-core host (see README.md):
  // each nominal read rate sits at or below half the workload's measured
  // read_max_qps.
  WorkloadSpec point_read;
  point_read.name = "point_read";
  point_read.users = 5000;
  point_read.shards = 1;
  point_read.wire = api::WireProtocol::kBinary;
  point_read.read_qps = 40000;
  point_read.read_connections = 4;
  point_read.writer = WriterMode::kTail;
  point_read.cycles_per_second = 5;
  point_read.slo_ms = 1;

  WorkloadSpec sharded_mixed;
  sharded_mixed.name = "sharded_mixed";
  sharded_mixed.users = 5000;
  sharded_mixed.shards = 4;
  sharded_mixed.wire = api::WireProtocol::kNdjson;
  sharded_mixed.read_qps = 8000;
  sharded_mixed.read_connections = 3;
  sharded_mixed.topk_share = 0.8;
  sharded_mixed.explain_share = 0.1;
  sharded_mixed.source_zipf = 1.0;
  sharded_mixed.writer = WriterMode::kPeriodic;
  sharded_mixed.cycle_period_ms = 200;
  sharded_mixed.slo_ms = 5;

  WorkloadSpec durable_ingest;
  durable_ingest.name = "durable_ingest";
  durable_ingest.users = 10000;
  durable_ingest.shards = 1;
  durable_ingest.wire = api::WireProtocol::kBinary;
  durable_ingest.durable = true;
  durable_ingest.read_qps = 5000;
  durable_ingest.read_connections = 3;
  durable_ingest.writer = WriterMode::kPeriodic;
  durable_ingest.cycle_period_ms = 500;
  durable_ingest.cycle_new_user = true;
  durable_ingest.pending_at_kill = 20;
  durable_ingest.slo_ms = 5;

  return {point_read, sharded_mixed, durable_ingest};
}

constexpr double kStages[] = {
    rating_scale::kNotHelpful, rating_scale::kSomewhatHelpful,
    rating_scale::kHelpful, rating_scale::kVeryHelpful,
    rating_scale::kMostHelpful};

// FNV-1a, fed field by field (doubles by their bit pattern).
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }
  void Double(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }
  void String(const std::string& value) {
    U64(value.size());
    Bytes(value.data(), value.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  static const std::vector<WorkloadSpec> workloads = BuildWorkloads();
  for (const WorkloadSpec& spec : workloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec SmokeVariant(WorkloadSpec spec) {
  spec.users = 500;
  spec.read_qps = std::min(spec.read_qps, 2000.0);
  spec.warmup_seconds = 0.5;
  return spec;
}

api::Request MakeRequest(const Op& op, int64_t id) {
  api::Request request;
  request.id = id;
  switch (op.kind) {
    case OpKind::kTrust:
      request.payload =
          api::TrustQuery{std::to_string(op.a), std::to_string(op.b)};
      break;
    case OpKind::kTopK:
      request.payload = api::TopKQuery{std::to_string(op.a), kTopK};
      break;
    case OpKind::kExplain:
      request.payload =
          api::ExplainQuery{std::to_string(op.a), std::to_string(op.b)};
      break;
    case OpKind::kIngestUser:
      request.payload = api::IngestUser{"e2e-user-" + std::to_string(op.a)};
      break;
    case OpKind::kIngestRating:
      request.payload = api::IngestRating{
          std::to_string(op.a), static_cast<int64_t>(op.b), kStages[op.stage]};
      break;
    case OpKind::kCommit:
      request.payload = api::CommitRequest{};
      break;
  }
  return request;
}

uint64_t ResponseVersion(const api::Response& response) {
  return std::visit(
      [](const auto& payload) -> uint64_t {
        if constexpr (requires { payload.snapshot_version; }) {
          return payload.snapshot_version;
        } else {
          return 0;
        }
      },
      response.payload);
}

// Hashes the answer's fields, not its wire encoding: a codec bug must not
// hide itself by canonicalizing both sides the same way.
uint64_t AnswerDigest(const api::Response& response) {
  Fnv1a h;
  h.U64(response.payload.index());
  if (const auto* r = std::get_if<api::TrustResult>(&response.payload)) {
    h.Double(r->trust);
    h.String(r->source_name);
    h.String(r->target_name);
  } else if (const auto* r = std::get_if<api::TopKResult>(&response.payload)) {
    h.String(r->source_name);
    h.U64(r->trustees.size());
    for (const api::ScoredUserEntry& entry : r->trustees) {
      h.U64(entry.user);
      h.String(entry.name);
      h.Double(entry.score);
    }
  } else if (const auto* r =
                 std::get_if<api::ExplainResult>(&response.payload)) {
    h.Double(r->trust);
    h.Double(r->affinity_sum);
    h.String(r->source_name);
    h.String(r->target_name);
    h.U64(r->terms.size());
    for (const api::ExplainTermResult& term : r->terms) {
      h.U64(term.category);
      h.String(term.category_name);
      h.Double(term.affiliation);
      h.Double(term.expertise);
      h.Double(term.contribution);
    }
  }
  return h.value();
}

RequestGen::RequestGen(const WorkloadSpec& spec, const Dataset& seed_dataset,
                       uint64_t seed)
    : spec_(spec),
      shards_(spec.shards),
      users_(static_cast<uint32_t>(seed_dataset.num_users())),
      read_rng_(0),
      write_rng_(0),
      probe_rng_(0) {
  Fnv1a name_hash;
  name_hash.String(spec.name);
  Rng base(seed ^ name_hash.value());
  read_rng_ = base.Fork();
  write_rng_ = base.Fork();
  probe_rng_ = base.Fork();
  if (spec.source_zipf > 0) {
    zipf_ = std::make_unique<ZipfSampler>(users_, spec.source_zipf);
    zipf_rank_to_user_.resize(users_);
    for (uint32_t u = 0; u < users_; ++u) zipf_rank_to_user_[u] = u;
    read_rng_.Shuffle(&zipf_rank_to_user_);
  }
  // The write stream needs each shard's reviews and existing ratings so
  // every generated rating is one the server accepts (no self-ratings, no
  // duplicate rater/review pairs, rater and review on the same shard).
  std::vector<Dataset> slices;
  if (shards_ > 1) {
    slices = SliceDatasetByUser(seed_dataset, shards_).ValueOrDie();
  }
  const size_t count = shards_;
  views_.resize(count);
  for (size_t s = 0; s < count; ++s) {
    const Dataset& slice = shards_ > 1 ? slices[s] : seed_dataset;
    ShardView& view = views_[s];
    view.users = static_cast<uint32_t>(slice.num_users());
    view.review_writer.reserve(slice.num_reviews());
    for (const Review& review : slice.reviews()) {
      view.review_writer.push_back(review.writer.value());
    }
    view.rated.reserve(slice.num_ratings() * 2);
    for (const ReviewRating& rating : slice.ratings()) {
      view.rated.insert(static_cast<uint64_t>(rating.rater.value()) << 32 |
                        rating.review.value());
    }
  }
}

uint32_t RequestGen::PickSource() {
  if (zipf_ != nullptr) {
    return zipf_rank_to_user_[zipf_->Sample(&read_rng_)];
  }
  return static_cast<uint32_t>(read_rng_.NextBounded(users_));
}

uint32_t RequestGen::PickTargetNear(uint32_t source) {
  // Pairs stay on the source's shard so the router can answer them.
  const size_t shard = source % shards_;
  const uint32_t local_users = views_[shard].users;
  while (true) {
    uint32_t local = static_cast<uint32_t>(read_rng_.NextBounded(local_users));
    uint32_t target = static_cast<uint32_t>(local * shards_ + shard);
    if (target != source || local_users == 1) return target;
  }
}

Op RequestGen::NextRead(double* gap) {
  *gap = -std::log(1.0 - read_rng_.NextDouble());
  const double pick = read_rng_.NextDouble();
  Op op;
  op.kind = pick < spec_.topk_share ? OpKind::kTopK
            : pick < spec_.topk_share + spec_.explain_share
                ? OpKind::kExplain
                : OpKind::kTrust;
  op.a = PickSource();
  if (op.kind != OpKind::kTopK) op.b = PickTargetNear(op.a);
  return op;
}

Op RequestGen::ProbeRead() {
  Op op;
  op.a = static_cast<uint32_t>(probe_rng_.NextBounded(users_));
  const size_t shard = op.a % shards_;
  const uint32_t local_users = views_[shard].users;
  op.b = static_cast<uint32_t>(probe_rng_.NextBounded(local_users) * shards_ +
                               shard);
  return op;
}

Op RequestGen::NextRating() {
  const size_t shard = next_rating_shard_++ % shards_;
  ShardView& view = views_[shard];
  while (true) {
    const uint32_t review = static_cast<uint32_t>(
        write_rng_.NextBounded(view.review_writer.size()));
    const uint32_t rater =
        static_cast<uint32_t>(write_rng_.NextBounded(view.users));
    if (rater == view.review_writer[review]) continue;
    if (!view.rated.insert(static_cast<uint64_t>(rater) << 32 | review)
             .second) {
      continue;
    }
    Op op;
    op.kind = OpKind::kIngestRating;
    op.stage = static_cast<uint8_t>(write_rng_.NextBounded(5));
    op.a = static_cast<uint32_t>(rater * shards_ + shard);
    op.b = static_cast<uint32_t>(review * shards_ + shard);
    return op;
  }
}

std::vector<Op> RequestGen::NextCycle() {
  std::vector<Op> ops;
  if (spec_.cycle_new_user) {
    Op user;
    user.kind = OpKind::kIngestUser;
    user.a = new_users_++;
    ops.push_back(user);
  }
  for (int i = 0; i < spec_.cycle_ratings; ++i) ops.push_back(NextRating());
  Op commit;
  commit.kind = OpKind::kCommit;
  ops.push_back(commit);
  return ops;
}

std::vector<Op> RequestGen::Pending(int count) {
  std::vector<Op> ops;
  for (int i = 0; i < count; ++i) ops.push_back(NextRating());
  return ops;
}

Result<std::unique_ptr<Oracle>> Oracle::Boot(const WorkloadSpec& spec,
                                             const Dataset& dataset) {
  std::unique_ptr<Oracle> oracle(new Oracle());
  if (spec.shards == 1) {
    WOT_ASSIGN_OR_RETURN(oracle->service_, TrustService::Create(dataset));
    oracle->plain_ =
        std::make_unique<api::ServiceFrontend>(oracle->service_.get());
    oracle->frontend_ = oracle->plain_.get();
  } else {
    WOT_ASSIGN_OR_RETURN(oracle->router_,
                         api::ShardRouter::Create(dataset, spec.shards));
    oracle->frontend_ = oracle->router_.get();
  }
  return oracle;
}

TrustService* Oracle::shard_service(size_t shard) const {
  return router_ != nullptr ? router_->shard_service(shard) : service_.get();
}

api::Response Oracle::Dispatch(const Op& op) {
  return frontend_->Dispatch(MakeRequest(op, next_id_++));
}

}  // namespace e2e
}  // namespace wot
