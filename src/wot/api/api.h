// The versioned request/response API of the trust serving layer.
//
// Every way of talking to a TrustService — the wot_cli `query` subcommand,
// the resident wot_served binary, examples, benches and (eventually) shard
// routers — goes through the typed messages defined here. A transport is
// then just a way of moving Request/Response values around: in-process
// (api/client.h LoopbackClient), or NDJSON frames over a byte stream
// (api/codec.h + wot_served).
//
// Protocol shape:
//   * A Request is an envelope {version, id, payload}; the payload variant
//     selects the method. `id` is an opaque client-chosen correlator echoed
//     back in the response (pipelining-friendly).
//   * A Response is an envelope {version, id, status, payload}. On error
//     the payload is empty and `status` carries an ApiCode + message; on
//     success the payload variant matches the request's method.
//   * `version` is the wire protocol version (kProtocolVersion). A server
//     answers a frame with any other version with INVALID_ARGUMENT rather
//     than guessing — see docs/wire_protocol.md for the evolution rules.
//
// Every message below describes its wire form once, in a `kWire` field
// table next to its fields (wire_schema.h); both codecs are generated
// from those tables. Adding a method means one struct with its table,
// appended to RequestPayload, plus its handler in each DispatchPayload.
//
// Users in queries are referenced by *name or decimal index* (one string
// field), resolved server-side by ResolveUserRef so every client shares
// identical lookup semantics.
#ifndef WOT_API_API_H_
#define WOT_API_API_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "wot/api/wire_schema.h"
#include "wot/util/result.h"
#include "wot/util/status.h"

namespace wot {
namespace api {

/// \brief The wire protocol version this build speaks.
inline constexpr int64_t kProtocolVersion = 1;

/// \brief Machine-readable outcome class of one API call.
enum class ApiCode : int {
  kOk = 0,
  kNotFound = 1,
  kInvalidArgument = 2,
  kUnimplemented = 3,
  kInternal = 4,
};

/// \brief Stable wire name of \p code ("OK", "NOT_FOUND", ...).
const char* ApiCodeName(ApiCode code);

/// \brief Inverse of ApiCodeName; error for unknown names.
Result<ApiCode> ApiCodeFromName(std::string_view name);

/// \brief Outcome of one API call: an ApiCode plus human-readable detail.
struct ApiStatus {
  ApiCode code = ApiCode::kOk;
  std::string message;

  friend bool operator==(const ApiStatus&, const ApiStatus&) = default;

  bool ok() const { return code == ApiCode::kOk; }
  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  static ApiStatus Ok() { return {}; }
  static ApiStatus NotFound(std::string msg) {
    return {ApiCode::kNotFound, std::move(msg)};
  }
  static ApiStatus InvalidArgument(std::string msg) {
    return {ApiCode::kInvalidArgument, std::move(msg)};
  }
  static ApiStatus Unimplemented(std::string msg) {
    return {ApiCode::kUnimplemented, std::move(msg)};
  }
  static ApiStatus Internal(std::string msg) {
    return {ApiCode::kInternal, std::move(msg)};
  }
  /// \brief Maps a library Status onto the API's coarser code space
  /// (NotFound/OutOfRange -> NOT_FOUND, NotImplemented -> UNIMPLEMENTED,
  /// argument/precondition errors -> INVALID_ARGUMENT, rest -> INTERNAL).
  static ApiStatus FromStatus(const Status& status);
};

/// \brief The client-side inverse of ApiStatus::FromStatus: maps an API
/// error back onto the library's Status space so callers can propagate it
/// with the usual WOT_RETURN_IF_ERROR machinery. OK maps to OK.
Status ToStatus(const ApiStatus& status);

// ---------------------------------------------------------------------------
// Request payloads (one struct per method).

/// \brief trust: the derived degree of trust T-hat(source -> target).
struct TrustQuery {
  std::string source;  ///< truster, by name or decimal index
  std::string target;  ///< trustee, by name or decimal index

  friend bool operator==(const TrustQuery&, const TrustQuery&) = default;
  static constexpr auto kWire =
      wire::Message("trust", wire::Field("source", &TrustQuery::source),
                    wire::Field("target", &TrustQuery::target));
};

/// \brief topk: the k most trusted users as seen by source.
struct TopKQuery {
  std::string source;
  int64_t k = 10;

  friend bool operator==(const TopKQuery&, const TopKQuery&) = default;
  static constexpr auto kWire =
      wire::Message("topk", wire::Field("source", &TopKQuery::source),
                    wire::Field("k", &TopKQuery::k).Optional());
};

/// \brief explain: per-category breakdown of one derived degree.
struct ExplainQuery {
  std::string source;
  std::string target;

  friend bool operator==(const ExplainQuery&, const ExplainQuery&) = default;
  static constexpr auto kWire =
      wire::Message("explain", wire::Field("source", &ExplainQuery::source),
                    wire::Field("target", &ExplainQuery::target));
};

/// \brief ingest_user: register a new community member.
struct IngestUser {
  std::string name;

  friend bool operator==(const IngestUser&, const IngestUser&) = default;
  static constexpr auto kWire =
      wire::Message("ingest_user", wire::Field("name", &IngestUser::name));
};

/// \brief ingest_category: register a new topic context.
struct IngestCategory {
  std::string name;

  friend bool operator==(const IngestCategory&, const IngestCategory&) = default;
  static constexpr auto kWire = wire::Message(
      "ingest_category", wire::Field("name", &IngestCategory::name));
};

/// \brief ingest_object: register a reviewable item under a category
/// (referenced by name or decimal index).
struct IngestObject {
  std::string category;
  std::string name;

  friend bool operator==(const IngestObject&, const IngestObject&) = default;
  static constexpr auto kWire = wire::Message(
      "ingest_object", wire::Field("category", &IngestObject::category),
      wire::Field("name", &IngestObject::name));
};

/// \brief ingest_review: record that \p writer reviewed object \p object.
struct IngestReview {
  std::string writer;  ///< name or decimal index
  int64_t object = -1;

  friend bool operator==(const IngestReview&, const IngestReview&) = default;
  static constexpr auto kWire = wire::Message(
      "ingest_review", wire::Field("writer", &IngestReview::writer),
      wire::Field("object", &IngestReview::object));
};

/// \brief ingest_rating: record rating \p value by \p rater on a review.
struct IngestRating {
  std::string rater;  ///< name or decimal index
  int64_t review = -1;
  double value = 0.0;

  friend bool operator==(const IngestRating&, const IngestRating&) = default;
  static constexpr auto kWire = wire::Message(
      "ingest_rating", wire::Field("rater", &IngestRating::rater),
      wire::Field("review", &IngestRating::review),
      wire::Field("value", &IngestRating::value));
};

/// \brief commit: derive staged activity and publish a new snapshot.
struct CommitRequest {
  friend bool operator==(const CommitRequest&, const CommitRequest&) = default;
  static constexpr auto kWire = wire::Message("commit");
};

/// \brief stats: serving counters and snapshot shape.
struct StatsRequest {
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
  static constexpr auto kWire = wire::Message("stats");
};

/// \brief metrics: a scrape of the serving telemetry registry (counters,
/// gauges, latency-histogram summaries; docs/observability.md catalogs
/// the names). Additive v1 method — appended at the END of the payload
/// variant so every older wire code is unchanged.
struct MetricsRequest {
  friend bool operator==(const MetricsRequest&,
                         const MetricsRequest&) = default;
  static constexpr auto kWire = wire::Message("metrics").EnvelopeAnswered();
};

/// \brief repl_fetch: pull the next replication artifact from a durable
/// primary (docs/replication.md). A replica that has applied nothing
/// (applied_version 0, or a checkpoint the source no longer retains WALs
/// for) receives snapshot-segment chunks addressed by \p offset; a
/// caught-up replica receives WAL-delta record batches starting strictly
/// after its applied commit version. Additive v1 method — appended at
/// the END of the payload variant so every older wire code is unchanged.
struct ReplFetchRequest {
  /// Which shard's artifacts to pull (0 on an unsharded primary; shard
  /// directory index under --shards).
  int64_t shard = 0;
  /// The replica's checkpoint: the last commit version it fully applied
  /// (0 = nothing, bootstrap me).
  uint64_t applied_version = 0;
  /// Byte offset into the segment file during a chunked bootstrap
  /// (ignored for delta fetches).
  uint64_t offset = 0;

  friend bool operator==(const ReplFetchRequest&,
                         const ReplFetchRequest&) = default;
  static constexpr auto kWire =
      wire::Message(
          "repl_fetch", wire::Field("shard", &ReplFetchRequest::shard).Optional(),
          wire::Field("applied_version", &ReplFetchRequest::applied_version)
              .Optional(),
          wire::Field("offset", &ReplFetchRequest::offset).Optional())
          .EnvelopeAnswered();
};

/// \brief repl_status: the answering server's replication role and
/// applied/source versions (additive v1 method).
struct ReplStatusRequest {
  friend bool operator==(const ReplStatusRequest&,
                         const ReplStatusRequest&) = default;
  static constexpr auto kWire =
      wire::Message("repl_status").EnvelopeAnswered();
};

/// \brief repl_promote: promote a follower to primary (stop pulling,
/// finish applying what is already fetched, accept writes). Answers the
/// post-promotion repl_status. Additive v1 method.
struct ReplPromoteRequest {
  friend bool operator==(const ReplPromoteRequest&,
                         const ReplPromoteRequest&) = default;
  static constexpr auto kWire =
      wire::Message("repl_promote").EnvelopeAnswered();
};

using RequestPayload =
    std::variant<TrustQuery, TopKQuery, ExplainQuery, IngestUser,
                 IngestCategory, IngestObject, IngestReview, IngestRating,
                 CommitRequest, StatsRequest, MetricsRequest,
                 ReplFetchRequest, ReplStatusRequest, ReplPromoteRequest>;

/// \brief One API call: protocol version, client correlator, method payload.
struct Request {
  int64_t version = kProtocolVersion;
  int64_t id = 0;
  RequestPayload payload;

  friend bool operator==(const Request&, const Request&) = default;
};

/// \brief The wire method name selected by \p payload (its kWire name:
/// "trust", "topk", "explain", "ingest_user", ..., "commit", "stats").
const char* MethodName(const RequestPayload& payload);

/// \brief All wire method names, in variant order (for fuzzing and docs).
const std::vector<std::string>& AllMethodNames();

// ---------------------------------------------------------------------------
// Response payloads.

/// \brief One entry of a top-k listing.
struct ScoredUserEntry {
  uint32_t user = 0;  ///< dense user index
  std::string name;
  double score = 0.0;

  friend bool operator==(const ScoredUserEntry&,
                         const ScoredUserEntry&) = default;
  static constexpr auto kWire =
      wire::Record(wire::Field("user", &ScoredUserEntry::user),
                   wire::Field("name", &ScoredUserEntry::name),
                   wire::Field("score", &ScoredUserEntry::score));
};

struct TrustResult {
  double trust = 0.0;
  /// Resolved display names of the query's refs (clients may have
  /// addressed users by index).
  std::string source_name;
  std::string target_name;
  uint64_t snapshot_version = 0;

  friend bool operator==(const TrustResult&, const TrustResult&) = default;
  static constexpr auto kWire = wire::Message(
      "trust", wire::Field("trust", &TrustResult::trust),
      wire::Field("source_name", &TrustResult::source_name),
      wire::Field("target_name", &TrustResult::target_name),
      wire::Field("snapshot_version", &TrustResult::snapshot_version));
};

struct TopKResult {
  std::string source_name;
  std::vector<ScoredUserEntry> trustees;
  uint64_t snapshot_version = 0;

  friend bool operator==(const TopKResult&, const TopKResult&) = default;
  static constexpr auto kWire = wire::Message(
      "topk", wire::Field("source_name", &TopKResult::source_name),
      wire::Field("trustees", &TopKResult::trustees),
      wire::Field("snapshot_version", &TopKResult::snapshot_version));
};

/// \brief One eq.-5 term of an explain breakdown.
struct ExplainTermResult {
  uint32_t category = 0;
  std::string category_name;
  double affiliation = 0.0;
  double expertise = 0.0;
  double contribution = 0.0;

  friend bool operator==(const ExplainTermResult&,
                         const ExplainTermResult&) = default;
  static constexpr auto kWire = wire::Record(
      wire::Field("category", &ExplainTermResult::category),
      wire::Field("category_name", &ExplainTermResult::category_name),
      wire::Field("affiliation", &ExplainTermResult::affiliation),
      wire::Field("expertise", &ExplainTermResult::expertise),
      wire::Field("contribution", &ExplainTermResult::contribution));
};

struct ExplainResult {
  double trust = 0.0;
  double affinity_sum = 0.0;
  std::string source_name;
  std::string target_name;
  std::vector<ExplainTermResult> terms;
  uint64_t snapshot_version = 0;

  friend bool operator==(const ExplainResult&, const ExplainResult&) = default;
  static constexpr auto kWire = wire::Message(
      "explain", wire::Field("trust", &ExplainResult::trust),
      wire::Field("affinity_sum", &ExplainResult::affinity_sum),
      wire::Field("source_name", &ExplainResult::source_name),
      wire::Field("target_name", &ExplainResult::target_name),
      wire::Field("terms", &ExplainResult::terms),
      wire::Field("snapshot_version", &ExplainResult::snapshot_version));
};

/// \brief Result of any ingest_* method: the dense id assigned to the new
/// entity (-1 for ingest_rating, which creates no id).
struct IngestResult {
  int64_t assigned_id = -1;

  friend bool operator==(const IngestResult&, const IngestResult&) = default;
  static constexpr auto kWire = wire::Message(
      "ingest", wire::Field("assigned_id", &IngestResult::assigned_id));
};

/// \brief What a commit did. Timing is deliberately NOT on the wire so
/// response streams are byte-deterministic (diffable in tests).
struct CommitResult {
  uint64_t snapshot_version = 0;
  bool published = false;
  int64_t categories_recomputed = 0;
  int64_t affiliation_rows_recomputed = 0;
  int64_t postings_rebuilt = 0;

  friend bool operator==(const CommitResult&, const CommitResult&) = default;
  static constexpr auto kWire = wire::Message(
      "commit", wire::Field("snapshot_version", &CommitResult::snapshot_version),
      wire::Field("published", &CommitResult::published),
      wire::Field("categories_recomputed",
                  &CommitResult::categories_recomputed),
      wire::Field("affiliation_rows_recomputed",
                  &CommitResult::affiliation_rows_recomputed),
      wire::Field("postings_rebuilt", &CommitResult::postings_rebuilt));
};

struct StatsResult {
  uint64_t snapshot_version = 0;
  int64_t users = 0;
  int64_t categories = 0;
  int64_t reviews = 0;
  int64_t ratings = 0;
  /// How many times the backing service was booted over the lifetime of
  /// the frontend answering this request. A resident server stays at 1 no
  /// matter how many requests it serves — the smoke test asserts this.
  int64_t service_boots = 0;
  /// Requests dispatched by this frontend so far, including this one.
  /// Under a concurrent connection server this aggregates ALL
  /// connections (the frontend is shared).
  int64_t requests_served = 0;
  // Connection-server counters (all 0 only when the request did not
  // arrive through a ConnectionServer, i.e. in-process loopback —
  // wot_served's stdin/stdout mode runs on the connection server too).
  /// Connections currently open on the serving ConnectionServer.
  int64_t connections_active = 0;
  /// Connections accepted over the server's lifetime.
  int64_t connections_accepted = 0;
  /// Requests read off the connection that asked, including this one.
  int64_t connection_requests_served = 0;
  // Shard-router counters (additive v1 fields; 0/empty — and absent on
  // the wire — when the answering frontend serves unsharded, i.e. a
  // ServiceFrontend or a single-shard ShardRouter).
  /// Number of TrustService shards behind the answering ShardRouter.
  int64_t shards = 0;
  /// Per-shard boot counts (always 1 per shard today; their sum is the
  /// aggregate `service_boots`).
  std::vector<int64_t> shard_service_boots;
  /// Per-shard routed-request counts: how many times the router touched
  /// each shard (point queries, scatter-gather fan-outs, ingest, commit).
  std::vector<int64_t> shard_requests_served;
  // Durability counters (additive v1 fields; all 0 — and absent on the
  // NDJSON wire — when the server runs without --data-dir, keeping
  // non-durable responses byte-identical to pre-storage servers). A
  // sharded durable server aggregates: sums over shards, except
  // segment_epoch which is the minimum across shards (the weakest
  // durable snapshot bound).
  /// Records in the live write-ahead log file.
  int64_t wal_records = 0;
  /// Bytes in the live write-ahead log file.
  int64_t wal_bytes = 0;
  /// Version of the newest durable snapshot segment (>= 1 when durable).
  int64_t segment_epoch = 0;
  /// Bytes of that segment file.
  int64_t segment_bytes = 0;
  /// WAL records replayed by the most recent recovery (0 = fresh boot).
  int64_t recovered_replayed_records = 0;

  friend bool operator==(const StatsResult&, const StatsResult&) = default;
  // Fields after requests_served are additive v1 fields: optional on
  // decode (an older server omits them). The shard fields appear on the
  // NDJSON wire only when shards > 0 and the durability fields only when
  // segment_epoch > 0, so unsharded and non-durable responses stay
  // byte-identical to older servers.
  static constexpr auto kWire = wire::Message(
      "stats", wire::Field("snapshot_version", &StatsResult::snapshot_version),
      wire::Field("users", &StatsResult::users),
      wire::Field("categories", &StatsResult::categories),
      wire::Field("reviews", &StatsResult::reviews),
      wire::Field("ratings", &StatsResult::ratings),
      wire::Field("service_boots", &StatsResult::service_boots),
      wire::Field("requests_served", &StatsResult::requests_served),
      wire::Field("connections_active", &StatsResult::connections_active)
          .Optional(),
      wire::Field("connections_accepted", &StatsResult::connections_accepted)
          .Optional(),
      wire::Field("connection_requests_served",
                  &StatsResult::connection_requests_served)
          .Optional(),
      wire::Field("shards", &StatsResult::shards)
          .OmitUnlessPositive(&StatsResult::shards),
      wire::Field("shard_service_boots", &StatsResult::shard_service_boots)
          .OmitUnlessPositive(&StatsResult::shards),
      wire::Field("shard_requests_served",
                  &StatsResult::shard_requests_served)
          .OmitUnlessPositive(&StatsResult::shards),
      wire::Field("wal_records", &StatsResult::wal_records)
          .OmitUnlessPositive(&StatsResult::segment_epoch),
      wire::Field("wal_bytes", &StatsResult::wal_bytes)
          .OmitUnlessPositive(&StatsResult::segment_epoch),
      wire::Field("segment_epoch", &StatsResult::segment_epoch)
          .OmitUnlessPositive(&StatsResult::segment_epoch),
      wire::Field("segment_bytes", &StatsResult::segment_bytes)
          .OmitUnlessPositive(&StatsResult::segment_epoch),
      wire::Field("recovered_replayed_records",
                  &StatsResult::recovered_replayed_records)
          .OmitUnlessPositive(&StatsResult::segment_epoch));
};

/// \brief One counter or gauge in a metrics scrape.
struct MetricValue {
  std::string name;
  int64_t value = 0;

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
  static constexpr auto kWire =
      wire::Record(wire::Field("name", &MetricValue::name),
                   wire::Field("value", &MetricValue::value));
};

/// \brief One latency histogram's summary in a metrics scrape. Latency
/// histograms record nanoseconds (their names end in `_ns`); value
/// histograms (batch sizes, scatter widths) record raw counts. The
/// quantiles are log-bucket estimates (<= 25% relative error).
struct MetricHistogramValue {
  std::string name;
  int64_t count = 0;  ///< samples recorded
  int64_t sum = 0;    ///< sum of recorded values
  int64_t min = 0;    ///< smallest sample, to bucket resolution
  int64_t max = 0;    ///< largest sample, to bucket resolution
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  friend bool operator==(const MetricHistogramValue&,
                         const MetricHistogramValue&) = default;
  static constexpr auto kWire =
      wire::Record(wire::Field("name", &MetricHistogramValue::name),
                   wire::Field("count", &MetricHistogramValue::count),
                   wire::Field("sum", &MetricHistogramValue::sum),
                   wire::Field("min", &MetricHistogramValue::min),
                   wire::Field("max", &MetricHistogramValue::max),
                   wire::Field("p50", &MetricHistogramValue::p50),
                   wire::Field("p90", &MetricHistogramValue::p90),
                   wire::Field("p99", &MetricHistogramValue::p99),
                   wire::Field("p999", &MetricHistogramValue::p999));
};

/// \brief A point-in-time scrape of the answering frontend's telemetry:
/// every source it can see (its own registry, the connection server's,
/// each shard's), merged. All three vectors are sorted by name.
struct MetricsResult {
  /// The published snapshot version (commit epoch when sharded) the
  /// scrape is attributable to.
  uint64_t snapshot_version = 0;
  std::vector<MetricValue> counters;
  std::vector<MetricValue> gauges;
  std::vector<MetricHistogramValue> histograms;

  friend bool operator==(const MetricsResult&,
                         const MetricsResult&) = default;
  static constexpr auto kWire = wire::Message(
      "metrics",
      wire::Field("snapshot_version", &MetricsResult::snapshot_version),
      wire::Field("counters", &MetricsResult::counters),
      wire::Field("gauges", &MetricsResult::gauges),
      wire::Field("histograms", &MetricsResult::histograms));
};

/// \brief Replication roles reported by repl_status.
enum class ReplRole : int64_t {
  kPrimary = 0,  ///< serves writes and ships artifacts
  kReplica = 1,  ///< follows a primary (promotable)
  kRouter = 2,   ///< fronts shards; reports its replica sets
};

/// \brief Kinds of replication artifact a repl_fetch can return.
enum class ReplArtifactKind : int64_t {
  kNone = 0,     ///< replica is caught up; nothing to ship
  kSegment = 1,  ///< one chunk of a snapshot segment file (bootstrap)
  kWalDelta = 2, ///< CRC-framed WAL records ending at a commit boundary
};

/// \brief One replication artifact (docs/replication.md). For a segment
/// chunk, `base_version == target_version` is the segment's version,
/// `offset`/`total_bytes` address the chunk within the file, and the
/// replica is bootstrapped once it has all `total_bytes`. For a WAL
/// delta, `base_version` is the checkpoint the records apply on top of
/// and `target_version` the commit version reached after applying them
/// all. `source_version` always reports the primary's current published
/// version so replicas can compute their lag.
struct ReplFetchResult {
  int64_t kind = 0;  ///< a ReplArtifactKind
  uint64_t base_version = 0;
  uint64_t target_version = 0;
  uint64_t source_version = 0;
  uint64_t offset = 0;
  uint64_t total_bytes = 0;
  std::string payload;  ///< raw artifact bytes (empty for kNone)

  friend bool operator==(const ReplFetchResult&,
                         const ReplFetchResult&) = default;
  static constexpr auto kWire = wire::Message(
      "repl_fetch", wire::Field("kind", &ReplFetchResult::kind),
      wire::Field("base_version", &ReplFetchResult::base_version),
      wire::Field("target_version", &ReplFetchResult::target_version),
      wire::Field("source_version", &ReplFetchResult::source_version),
      wire::Field("offset", &ReplFetchResult::offset),
      wire::Field("total_bytes", &ReplFetchResult::total_bytes),
      wire::Field("payload", &ReplFetchResult::payload).Hex());
};

/// \brief One replica as seen by the server answering repl_status (a
/// ShardRouter reports its configured replica set per shard; a plain
/// primary or follower reports none).
struct ReplReplicaInfo {
  int64_t shard = 0;
  std::string address;
  uint64_t applied_version = 0;
  /// 0 = unreachable on last contact, 1 = healthy.
  int64_t healthy = 0;

  friend bool operator==(const ReplReplicaInfo&,
                         const ReplReplicaInfo&) = default;
  static constexpr auto kWire =
      wire::Record(wire::Field("shard", &ReplReplicaInfo::shard),
                   wire::Field("address", &ReplReplicaInfo::address),
                   wire::Field("applied_version",
                               &ReplReplicaInfo::applied_version),
                   wire::Field("healthy", &ReplReplicaInfo::healthy));
};

/// \brief The answering server's replication role and progress.
struct ReplStatusResult {
  /// 0 = primary/source, 1 = follower, 2 = promoted follower.
  int64_t role = 0;
  /// Last commit version fully applied locally (a primary reports its
  /// published version).
  uint64_t applied_version = 0;
  /// The source's published version at last contact (equals
  /// applied_version on a primary).
  uint64_t source_version = 0;
  /// Promotions performed by this process.
  int64_t failovers = 0;
  std::vector<ReplReplicaInfo> replicas;

  friend bool operator==(const ReplStatusResult&,
                         const ReplStatusResult&) = default;
  static constexpr auto kWire = wire::Message(
      "repl_status", wire::Field("role", &ReplStatusResult::role),
      wire::Field("applied_version", &ReplStatusResult::applied_version),
      wire::Field("source_version", &ReplStatusResult::source_version),
      wire::Field("failovers", &ReplStatusResult::failovers),
      wire::Field("replicas", &ReplStatusResult::replicas));
};

using ResponsePayload =
    std::variant<std::monostate, TrustResult, TopKResult, ExplainResult,
                 IngestResult, CommitResult, StatsResult, MetricsResult,
                 ReplFetchResult, ReplStatusResult>;

/// \brief One API reply. `id` echoes the request's correlator (0 when the
/// frame was too malformed to extract one).
struct Response {
  int64_t version = kProtocolVersion;
  int64_t id = 0;
  ApiStatus status;
  ResponsePayload payload;

  friend bool operator==(const Response&, const Response&) = default;
};

}  // namespace api
}  // namespace wot

#endif  // WOT_API_API_H_
