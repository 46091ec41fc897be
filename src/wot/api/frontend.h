// Frontend: the one interface every transport serves, and ServiceFrontend,
// its single-service implementation.
//
// A Frontend answers typed API requests (Dispatch) or raw NDJSON frames
// (DispatchLine: one byte line in, one structured frame out — total: any
// input yields a valid frame). Every transport funnels into it:
//
//   * wot_cli query       -> LoopbackClient -> Dispatch
//   * wot_cli --connect   -> SocketClient -> wot_served -> DispatchLine
//                            (or DispatchFrame on a binary connection)
//   * wot_served          -> the wot/server ConnectionServer, for
//                            stdin/stdout, --socket and --listen alike
//
// so responses are identical no matter how a request arrived (property-
// tested bit-for-bit). Implementations:
//
//   * ServiceFrontend (here)        — dispatches against ONE TrustService.
//   * ShardRouter (api/shard_router.h) — owns N TrustService shards and
//     serves the identical wire protocol by routing/scatter-gathering;
//     with one shard it is bit-identical to a ServiceFrontend.
//
// Telemetry: the base envelope owns a telemetry::MetricRegistry and
// answers the additive `metrics` method from it — envelope counters
// (api.requests_served / api.errors, the SAME counters the stats method
// reports, so the two can never disagree), a per-method latency
// histogram (api.latency_ns.<method>), and every registry registered via
// AddMetricsSource (a ConnectionServer's, a StorageManager's, each
// shard service's), merged at scrape time. The envelope also writes the
// slow-request log: set_slow_request_threshold_millis makes any slower
// dispatch emit one WARNING line carrying the request's trace id
// (telemetry/trace.h), method, shard and commit epoch.
//
// Thread contract: Dispatch/DispatchLine ARE thread-safe; one frontend is
// shared by every connection of a ConnectionServer. Queries resolve names
// on the published TrustSnapshot (its immutable NameIndex) and run
// lock-free; ingest and commit requests delegate to the TrustService's
// internally serialized write path. Consequence: a user name (or index)
// ingested but not yet committed is NOT resolvable by queries — it
// answers NOT_FOUND until a commit publishes the next snapshot. Ingest
// references, by contrast, resolve against the staged dataset inside the
// writer lock, so "ingest_user then ingest_review by that name" works
// without an intervening commit.
#ifndef WOT_API_FRONTEND_H_
#define WOT_API_FRONTEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wot/api/api.h"
#include "wot/service/trust_service.h"
#include "wot/service/trust_snapshot.h"
#include "wot/telemetry/metric_registry.h"
#include "wot/util/thread_annotations.h"

namespace wot {
namespace api {

/// \brief Resolves \p ref as a user name or decimal user index against the
/// published \p snapshot — the read path's one name-or-index lookup.
/// Touches only snapshot-owned immutable state (safe from any thread).
Result<UserId> ResolveUserRef(const TrustSnapshot& snapshot,
                              std::string_view ref);

/// \brief A bare error response around \p status (the dispatchers share
/// this so their error frames cannot diverge; the Frontend envelope
/// fills version/id afterwards).
inline Response ErrorResponse(ApiStatus status) {
  Response response;
  response.status = std::move(status);
  return response;
}

/// \brief Base of every DispatchPayload visitor. Its one overload covers
/// every method marked wire::EnvelopeAnswered (metrics and the
/// replication methods): the Frontend envelope answers those itself, so
/// they never reach DispatchPayload. A data method without a handler arm
/// still fails to compile. Visitors inherit it with
/// `using EnvelopeAnsweredArm::operator();`.
struct EnvelopeAnsweredArm {
  template <wire::EnvelopeAnswered Q>
  Response operator()(const Q&) const {
    return ErrorResponse(ApiStatus::Internal(
        std::string(Q::kWire.name) + " request reached DispatchPayload"));
  }
};

/// \brief Serving counters of one frontend (returned by the stats method).
struct FrontendStats {
  /// Boots of the backing service(s) observed by this frontend. Stays at
  /// the shard count for the lifetime of a resident server — 1 for a
  /// ServiceFrontend (the round-trip smoke asserts a thousand requests
  /// share one boot), N for a ShardRouter fronting N shards.
  int64_t service_boots = 1;
  int64_t requests_served = 0;
  int64_t errors = 0;
};

/// \brief Connection-server context for one dispatched request. A
/// ConnectionServer fills this per request so the stats method can
/// surface per-connection and aggregate serving counters; transports
/// without connections (the in-process loopback) leave it defaulted.
struct ConnectionContext {
  int64_t connections_active = 0;
  int64_t connections_accepted = 0;
  /// Requests read off the asking connection so far, including this one.
  int64_t connection_requests_served = 0;
  /// The serving connection's id (1-based per server; 0 = no connection,
  /// e.g. the in-process loopback). Together with
  /// connection_requests_served it forms the request's trace id.
  int64_t connection_id = 0;
};

/// \brief Answers the replication methods (`repl_fetch` / `repl_status` /
/// `repl_promote`). The api layer defines only this seam: concrete
/// implementations live in wot/replication (a ReplicationSource serving a
/// primary's artifacts, a ReplicaService reporting follower progress) and
/// are attached to a Frontend with set_replication_handler. A frontend
/// with no handler answers every replication method with a framed
/// UNIMPLEMENTED error, so the wire surface stays total either way.
///
/// Thread contract: all three methods may be called concurrently from any
/// serving thread.
class ReplicationHandler {
 public:
  virtual ~ReplicationHandler() = default;

  /// One artifact chunk at or after the caller's applied checkpoint.
  virtual Response HandleReplFetch(const ReplFetchRequest& request) = 0;
  /// Role, applied/source versions, failover count, per-replica progress.
  virtual Response HandleReplStatus(const ReplStatusRequest& request) = 0;
  /// Promote this follower to primary (no-op error on a primary).
  virtual Response HandleReplPromote(const ReplPromoteRequest& request) = 0;
};

/// \brief The serving interface: one implementation-agnostic dispatcher of
/// the versioned API. The envelope work — request/error counting, the
/// protocol-version gate, id echoing, NDJSON decode/encode, per-method
/// latency recording, the metrics method, the slow-request log — lives
/// here, so every implementation answers malformed input and version skew
/// with byte-identical frames; subclasses implement DispatchPayload only.
class Frontend {
 public:
  virtual ~Frontend() = default;

  /// \brief Executes one typed request. The response echoes request.id.
  Response Dispatch(const Request& request) {
    return Dispatch(request, ConnectionContext{});
  }
  Response Dispatch(const Request& request,
                    const ConnectionContext& connection);

  /// \brief Decodes one NDJSON frame, dispatches it, encodes the reply
  /// (no trailing newline). Total: any input yields a valid frame.
  std::string DispatchLine(std::string_view line) {
    return DispatchLine(line, ConnectionContext{});
  }
  std::string DispatchLine(std::string_view line,
                           const ConnectionContext& connection);

  /// \brief Decodes one v2 binary frame, dispatches it, encodes the binary
  /// reply — DispatchLine's twin for connections that negotiated the
  /// binary protocol. Total: any input yields a valid binary frame.
  std::string DispatchFrame(std::string_view frame) {
    return DispatchFrame(frame, ConnectionContext{});
  }
  std::string DispatchFrame(std::string_view frame,
                            const ConnectionContext& connection);

  /// Value snapshot of the counters (they advance concurrently).
  virtual FrontendStats stats() const;

  /// \brief The registry the envelope's own instrumentation records into.
  /// Valid for the frontend's lifetime.
  const std::shared_ptr<telemetry::MetricRegistry>& metrics_registry()
      const {
    return registry_;
  }

  /// \brief Registers another registry to be merged into every scrape
  /// (a ConnectionServer's, a StorageManager's). Thread-safe; sources
  /// are scraped in registration order and never unregistered.
  void AddMetricsSource(
      std::shared_ptr<const telemetry::MetricRegistry> source)
      WOT_EXCLUDES(sources_mu_);

  /// \brief One merged scrape: the envelope's own registry plus every
  /// AddMetricsSource registry. ShardRouter widens this with its shard
  /// services' registries. Never blocks writers.
  virtual telemetry::MetricsSnapshot ScrapeMetrics() const
      WOT_EXCLUDES(sources_mu_);

  /// \brief The epoch stamped on metrics responses and slow-log lines:
  /// the published snapshot version (ServiceFrontend) or router-level
  /// commit epoch (ShardRouter).
  virtual uint64_t TelemetryEpoch() const { return 0; }

  /// \brief Any dispatch slower than \p millis emits one WARNING line
  /// with the request's trace id, method, shard and epoch (and counts on
  /// api.slow_requests). 0 logs every request; negative (the default)
  /// disables the log. Thread-safe.
  void set_slow_request_threshold_millis(int64_t millis) {
    slow_request_threshold_ns_.store(
        millis < 0 ? -1 : millis * 1'000'000, std::memory_order_relaxed);
  }

  /// \brief Attaches the handler that answers the replication methods;
  /// nullptr (the default) makes them answer UNIMPLEMENTED. \p handler
  /// must outlive the frontend (or a later set_replication_handler call).
  /// Thread-safe, like the slow-request threshold.
  void set_replication_handler(ReplicationHandler* handler) {
    replication_handler_.store(handler, std::memory_order_release);
  }
  ReplicationHandler* replication_handler() const {
    return replication_handler_.load(std::memory_order_acquire);
  }

 protected:
  Frontend();

  /// \brief Executes one payload. Called only with the supported protocol
  /// version; must be thread-safe. The base fills version/id and clears
  /// the payload of error responses afterwards. Never sees an
  /// envelope-answered method (see EnvelopeAnsweredArm).
  virtual Response DispatchPayload(const Request& request,
                                   const ConnectionContext& connection) = 0;

  /// Requests dispatched (including undecodable frames) and errors
  /// answered — registry counters (api.requests_served / api.errors)
  /// maintained by the base envelope, read back by stats(): the stats
  /// and metrics methods report THE SAME cells and can never disagree.
  telemetry::Counter* requests_served_;
  telemetry::Counter* errors_;

 private:
  /// \brief Answers the metrics method from ScrapeMetrics().
  Response DispatchMetrics() const;

  /// \brief Routes a replication method to the attached handler (or
  /// answers UNIMPLEMENTED when none is attached).
  Response DispatchReplication(const Request& request) const;

  void MaybeLogSlow(const Request& request,
                    const ConnectionContext& connection,
                    int64_t elapsed_ns) const;

  std::shared_ptr<telemetry::MetricRegistry> registry_;
  telemetry::Counter* slow_requests_;
  /// Indexed by RequestPayload alternative (api.latency_ns.<method>).
  std::vector<telemetry::LatencyHistogram*> method_latency_ns_;
  std::atomic<int64_t> slow_request_threshold_ns_{-1};
  std::atomic<ReplicationHandler*> replication_handler_{nullptr};

  mutable Mutex sources_mu_;
  std::vector<std::shared_ptr<const telemetry::MetricRegistry>> sources_
      WOT_GUARDED_BY(sources_mu_);
};

/// \brief Dispatches requests against a TrustService it does not own.
class ServiceFrontend : public Frontend {
 public:
  /// \p service must outlive the frontend. The service's own metric
  /// registry (commit stage timings, WAL latencies recorded by an
  /// attached StorageManager) is registered as a scrape source.
  explicit ServiceFrontend(TrustService* service) : service_(service) {
    AddMetricsSource(service_->metrics_registry());
  }

  TrustService* service() const { return service_; }

  /// The published snapshot version.
  uint64_t TelemetryEpoch() const override {
    return service_->Snapshot()->version();
  }

 protected:
  Response DispatchPayload(const Request& request,
                           const ConnectionContext& connection) override;

 private:
  TrustService* service_;
};

}  // namespace api
}  // namespace wot

#endif  // WOT_API_FRONTEND_H_
