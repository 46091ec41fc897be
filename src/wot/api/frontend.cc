#include "wot/api/frontend.h"

#include <memory>
#include <utility>
#include <variant>

#include "wot/api/binary_codec.h"
#include "wot/api/codec.h"
#include "wot/telemetry/timed.h"
#include "wot/telemetry/trace.h"
#include "wot/util/logging.h"
#include "wot/util/string_util.h"

namespace wot {
namespace api {

Result<UserId> ResolveUserRef(const TrustSnapshot& snapshot,
                              std::string_view ref) {
  if (ref.empty()) {
    return Status::InvalidArgument(kEmptyUserRefMessage);
  }
  Result<int64_t> as_index = ParseInt64(ref);
  if (as_index.ok()) {
    int64_t index = as_index.ValueOrDie();
    if (index < 0 ||
        static_cast<size_t>(index) >= snapshot.num_users()) {
      return Status::NotFound(
          UserIndexOutOfRangeMessage(ref, snapshot.num_users()));
    }
    return UserId(static_cast<uint32_t>(index));
  }
  std::optional<uint32_t> id = snapshot.user_names().Find(ref);
  if (!id.has_value()) {
    return Status::NotFound(NoUserNamedMessage(ref));
  }
  return UserId(*id);
}

Frontend::Frontend() : registry_(std::make_shared<telemetry::MetricRegistry>()) {
  requests_served_ = registry_->counter("api.requests_served");
  errors_ = registry_->counter("api.errors");
  slow_requests_ = registry_->counter("api.slow_requests");
  method_latency_ns_.reserve(AllMethodNames().size());
  for (const std::string& method : AllMethodNames()) {
    method_latency_ns_.push_back(
        registry_->histogram("api.latency_ns." + method));
  }
}

FrontendStats Frontend::stats() const {
  FrontendStats stats;
  stats.requests_served = requests_served_->Value();
  stats.errors = errors_->Value();
  return stats;
}

void Frontend::AddMetricsSource(
    std::shared_ptr<const telemetry::MetricRegistry> source) {
  MutexLock lock(sources_mu_);
  sources_.push_back(std::move(source));
}

telemetry::MetricsSnapshot Frontend::ScrapeMetrics() const {
  telemetry::MetricsSnapshot merged = registry_->Scrape();
  MutexLock lock(sources_mu_);
  for (const std::shared_ptr<const telemetry::MetricRegistry>& source :
       sources_) {
    merged.MergeFrom(source->Scrape());
  }
  return merged;
}

Response Frontend::DispatchMetrics() const {
  telemetry::MetricsSnapshot snapshot = ScrapeMetrics();
  MetricsResult result;
  result.snapshot_version = TelemetryEpoch();
  result.counters.reserve(snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    result.counters.push_back({name, value});
  }
  result.gauges.reserve(snapshot.gauges.size());
  for (const auto& [name, value] : snapshot.gauges) {
    result.gauges.push_back({name, value});
  }
  result.histograms.reserve(snapshot.histograms.size());
  for (const telemetry::HistogramSnapshot& h : snapshot.histograms) {
    MetricHistogramValue v;
    v.name = h.name;
    v.count = h.count;
    v.sum = h.sum;
    v.min = h.ApproxMin();
    v.max = h.ApproxMax();
    v.p50 = h.Quantile(0.5);
    v.p90 = h.Quantile(0.9);
    v.p99 = h.Quantile(0.99);
    v.p999 = h.Quantile(0.999);
    result.histograms.push_back(std::move(v));
  }
  Response response;
  response.payload = std::move(result);
  return response;
}

Response Frontend::DispatchReplication(const Request& request) const {
  ReplicationHandler* handler = replication_handler();
  if (handler == nullptr) {
    return ErrorResponse(ApiStatus::Unimplemented(
        "replication is not enabled on this server"));
  }
  if (const auto* fetch = std::get_if<ReplFetchRequest>(&request.payload)) {
    return handler->HandleReplFetch(*fetch);
  }
  if (const auto* status =
          std::get_if<ReplStatusRequest>(&request.payload)) {
    return handler->HandleReplStatus(*status);
  }
  return handler->HandleReplPromote(
      std::get<ReplPromoteRequest>(request.payload));
}

void Frontend::MaybeLogSlow(const Request& request,
                            const ConnectionContext& connection,
                            int64_t elapsed_ns) const {
  const int64_t threshold_ns =
      slow_request_threshold_ns_.load(std::memory_order_relaxed);
  if (threshold_ns < 0 || elapsed_ns < threshold_ns) return;
  slow_requests_->Increment();
  WOT_LOG(Warning) << "slow request trace="
                   << telemetry::TraceId(
                          connection.connection_id,
                          connection.connection_requests_served)
                   << " method=" << MethodName(request.payload)
                   << " elapsed_ms=" << elapsed_ns / 1e6
                   << " shard=" << telemetry::DispatchShard()
                   << " epoch=" << TelemetryEpoch();
}

Response Frontend::Dispatch(const Request& request,
                            const ConnectionContext& connection) {
  requests_served_->Increment();
#ifndef WOT_TELEMETRY_OFF
  telemetry::ClearDispatchShard();
  telemetry::Timer timer;
#endif
  Response response;
  if (request.version != kProtocolVersion) {
    response.status = ApiStatus::InvalidArgument(
        "unsupported protocol version " + std::to_string(request.version) +
        " (this server speaks v" + std::to_string(kProtocolVersion) + ")");
  } else if (std::holds_alternative<MetricsRequest>(request.payload)) {
    // The envelope answers metrics itself so every implementation serves
    // the method uniformly (and a scrape can never deadlock a subclass).
    response = DispatchMetrics();
  } else if (std::holds_alternative<ReplFetchRequest>(request.payload) ||
             std::holds_alternative<ReplStatusRequest>(request.payload) ||
             std::holds_alternative<ReplPromoteRequest>(request.payload)) {
    // Replication methods are likewise envelope-routed: every frontend
    // answers them (UNIMPLEMENTED without an attached handler), so the
    // wire surface stays total whether or not replication is enabled.
    response = DispatchReplication(request);
  } else {
    response = DispatchPayload(request, connection);
  }
#ifndef WOT_TELEMETRY_OFF
  const int64_t elapsed_ns =
      timer.RecordInto(method_latency_ns_[request.payload.index()]);
  MaybeLogSlow(request, connection, elapsed_ns);
#endif
  response.version = kProtocolVersion;
  response.id = request.id;
  if (!response.status.ok()) {
    errors_->Increment();
    response.payload = std::monostate{};
  }
  return response;
}

std::string Frontend::DispatchLine(std::string_view line,
                                   const ConnectionContext& connection) {
  Request request;
  ApiStatus decode_status = DecodeRequest(line, &request);
  if (!decode_status.ok()) {
    requests_served_->Increment();
    errors_->Increment();
    Response response;
    response.id = request.id;
    response.status = std::move(decode_status);
    return EncodeResponse(response);
  }
  return EncodeResponse(Dispatch(request, connection));
}

std::string Frontend::DispatchFrame(std::string_view frame,
                                    const ConnectionContext& connection) {
  Request request;
  ApiStatus decode_status = DecodeRequestBinary(frame, &request);
  if (!decode_status.ok()) {
    requests_served_->Increment();
    errors_->Increment();
    Response response;
    response.id = request.id;
    response.status = std::move(decode_status);
    return EncodeResponseBinary(response);
  }
  return EncodeResponseBinary(Dispatch(request, connection));
}

Response ServiceFrontend::DispatchPayload(
    const Request& request, const ConnectionContext& connection) {
  struct Visitor : EnvelopeAnsweredArm {
    using EnvelopeAnsweredArm::operator();

    ServiceFrontend& frontend;
    const ConnectionContext& connection;

    Response operator()(const TrustQuery& q) {
      std::shared_ptr<const TrustSnapshot> snapshot =
          frontend.service_->Snapshot();
      Result<UserId> source = ResolveUserRef(*snapshot, q.source);
      if (!source.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(source.status()));
      }
      Result<UserId> target = ResolveUserRef(*snapshot, q.target);
      if (!target.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(target.status()));
      }
      TrustResult result;
      result.trust = snapshot->Trust(source.ValueOrDie().index(),
                                     target.ValueOrDie().index());
      result.source_name =
          snapshot->user_names().name(source.ValueOrDie().index());
      result.target_name =
          snapshot->user_names().name(target.ValueOrDie().index());
      result.snapshot_version = snapshot->version();
      Response response;
      response.payload = std::move(result);
      return response;
    }

    Response operator()(const TopKQuery& q) {
      if (q.k <= 0) {
        return ErrorResponse(
            ApiStatus::InvalidArgument("'k' must be positive"));
      }
      std::shared_ptr<const TrustSnapshot> snapshot =
          frontend.service_->Snapshot();
      Result<UserId> source = ResolveUserRef(*snapshot, q.source);
      if (!source.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(source.status()));
      }
      TopKResult result;
      result.source_name =
          snapshot->user_names().name(source.ValueOrDie().index());
      result.snapshot_version = snapshot->version();
      for (const ScoredUser& scored :
           snapshot->TopK(source.ValueOrDie().index(),
                          static_cast<size_t>(q.k))) {
        result.trustees.push_back(
            {scored.user, snapshot->user_names().name(scored.user),
             scored.score});
      }
      Response response;
      response.payload = std::move(result);
      return response;
    }

    Response operator()(const ExplainQuery& q) {
      std::shared_ptr<const TrustSnapshot> snapshot =
          frontend.service_->Snapshot();
      Result<UserId> source = ResolveUserRef(*snapshot, q.source);
      if (!source.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(source.status()));
      }
      Result<UserId> target = ResolveUserRef(*snapshot, q.target);
      if (!target.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(target.status()));
      }
      TrustExplanation explanation = snapshot->ExplainTrust(
          source.ValueOrDie().index(), target.ValueOrDie().index());
      ExplainResult result;
      result.trust = explanation.trust;
      result.affinity_sum = explanation.affinity_sum;
      result.source_name =
          snapshot->user_names().name(source.ValueOrDie().index());
      result.target_name =
          snapshot->user_names().name(target.ValueOrDie().index());
      result.snapshot_version = snapshot->version();
      for (const TrustContribution& term : explanation.terms) {
        result.terms.push_back(
            {term.category, snapshot->category_names()[term.category],
             term.affiliation, term.expertise, term.contribution});
      }
      Response response;
      response.payload = std::move(result);
      return response;
    }

    Response operator()(const IngestUser& q) {
      if (q.name.empty()) {
        return ErrorResponse(
            ApiStatus::InvalidArgument("user name must not be empty"));
      }
      UserId id = frontend.service_->AddUser(q.name);
      Response response;
      response.payload = IngestResult{static_cast<int64_t>(id.value())};
      return response;
    }

    Response operator()(const IngestCategory& q) {
      if (q.name.empty()) {
        return ErrorResponse(
            ApiStatus::InvalidArgument("category name must not be empty"));
      }
      CategoryId id = frontend.service_->AddCategory(q.name);
      Response response;
      response.payload = IngestResult{static_cast<int64_t>(id.value())};
      return response;
    }

    Response operator()(const IngestObject& q) {
      if (q.name.empty()) {
        return ErrorResponse(
            ApiStatus::InvalidArgument("object name must not be empty"));
      }
      Result<ObjectId> id =
          frontend.service_->AddObjectByRef(q.category, q.name);
      if (!id.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(id.status()));
      }
      Response response;
      response.payload =
          IngestResult{static_cast<int64_t>(id.ValueOrDie().value())};
      return response;
    }

    Response operator()(const IngestReview& q) {
      Result<ReviewId> id =
          frontend.service_->AddReviewByRef(q.writer, q.object);
      if (!id.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(id.status()));
      }
      Response response;
      response.payload =
          IngestResult{static_cast<int64_t>(id.ValueOrDie().value())};
      return response;
    }

    Response operator()(const IngestRating& q) {
      Status status =
          frontend.service_->AddRatingByRef(q.rater, q.review, q.value);
      if (!status.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(status));
      }
      Response response;
      response.payload = IngestResult{-1};
      return response;
    }

    Response operator()(const CommitRequest&) {
      Result<TrustService::CommitStats> stats =
          frontend.service_->Commit();
      if (!stats.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(stats.status()));
      }
      const TrustService::CommitStats& s = stats.ValueOrDie();
      Response response;
      response.payload = CommitResult{
          s.version, s.published,
          static_cast<int64_t>(s.categories_recomputed),
          static_cast<int64_t>(s.affiliation_rows_recomputed),
          static_cast<int64_t>(s.postings_rebuilt)};
      return response;
    }

    Response operator()(const StatsRequest&) {
      std::shared_ptr<const TrustSnapshot> snapshot =
          frontend.service_->Snapshot();
      StatsResult result;
      result.snapshot_version = snapshot->version();
      result.users = static_cast<int64_t>(snapshot->num_users());
      result.categories =
          static_cast<int64_t>(snapshot->num_categories());
      result.reviews = static_cast<int64_t>(snapshot->num_reviews());
      result.ratings = static_cast<int64_t>(snapshot->num_ratings());
      result.service_boots = 1;
      result.requests_served = frontend.requests_served_->Value();
      result.connections_active = connection.connections_active;
      result.connections_accepted = connection.connections_accepted;
      result.connection_requests_served =
          connection.connection_requests_served;
      DurabilityStats durability =
          frontend.service_->durability_stats();
      result.wal_records = durability.wal_records;
      result.wal_bytes = durability.wal_bytes;
      result.segment_epoch = durability.segment_epoch;
      result.segment_bytes = durability.segment_bytes;
      result.recovered_replayed_records =
          durability.recovered_replayed_records;
      Response response;
      response.payload = result;
      return response;
    }
  };

  return std::visit(Visitor{{}, *this, connection}, request.payload);
}

}  // namespace api
}  // namespace wot
