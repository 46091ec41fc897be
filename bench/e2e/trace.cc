#include "trace.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <variant>

#include "loadgen.h"
#include "wot/api/binary_codec.h"
#include "wot/api/client.h"
#include "wot/api/codec.h"
#include "wot/api/unix_socket.h"
#include "wot/server/connection_server.h"
#include "wot/storage/durable_boot.h"
#include "wot/telemetry/metric_registry.h"

namespace wot {
namespace e2e {
namespace {

// Counts per run. Tails are taken only where at least ten samples lie
// beyond them.
constexpr size_t kReplayReads = 10000;
constexpr size_t kRttReads = 2000;
constexpr size_t kRttWarmup = 200;
constexpr size_t kFanoutReads = 2000;
constexpr int64_t kWriteCycles = 10;
constexpr int kProbePending = 20;
constexpr size_t kOverheadSpans = 100000;

class SpanRecorder {
 public:
  int Begin(const char* name, int parent, int64_t request) {
    spans_.push_back({Intern(name), parent, request, 0, 0});
    // Stamped last, so the bookkeeping above stays outside the span.
    spans_.back().start = NowNs();
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Ends \p span and returns its duration in nanoseconds.
  double End(int span) {
    Span& s = spans_[static_cast<size_t>(span)];
    s.end = NowNs();
    return static_cast<double>(s.end - s.start);
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\","
           "\"request\"],\"names\":[";
    for (size_t i = 0; i < names_.size(); ++i) {
      out << (i ? "," : "") << '"' << names_[i] << '"';
    }
    out << "],\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << '[' << s.name << ',' << s.start - origin
          << ',' << s.end - origin << ',' << s.parent << ',' << s.request
          << ']';
    }
    out << "]}\n";
    out.close();
    if (!out) return Status::IOError("cannot write " + path);
    return Status::OK();
  }

 private:
  struct Span {
    int name;
    int parent;
    int64_t request;
    int64_t start;
    int64_t end;
  };

  int Intern(const char* name) {
    for (size_t i = 0; i < name_ptrs_.size(); ++i) {
      if (name_ptrs_[i] == name) return static_cast<int>(i);
    }
    name_ptrs_.push_back(name);
    names_.emplace_back(name);
    return static_cast<int>(names_.size()) - 1;
  }

  std::vector<const char*> name_ptrs_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

const telemetry::HistogramSnapshot* FindHistogram(
    const telemetry::MetricsSnapshot& snapshot, std::string_view name) {
  for (const telemetry::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double HistogramSumDelta(const telemetry::MetricsSnapshot& before,
                         const telemetry::MetricsSnapshot& after,
                         std::string_view name) {
  const telemetry::HistogramSnapshot* a = FindHistogram(after, name);
  const telemetry::HistogramSnapshot* b = FindHistogram(before, name);
  return static_cast<double>((a ? a->sum : 0) - (b ? b->sum : 0));
}

double HistogramQuantile(const telemetry::MetricsSnapshot& snapshot,
                         std::string_view name, double q) {
  const telemetry::HistogramSnapshot* h = FindHistogram(snapshot, name);
  return h != nullptr ? h->Quantile(q) : 0.0;
}

// The TrustSnapshot call a read makes on its owning shard.
double QuerySnapshot(const TrustSnapshot& snapshot, const Op& local) {
  switch (local.kind) {
    case OpKind::kTopK: {
      std::vector<ScoredUser> top =
          snapshot.TopK(local.a, static_cast<size_t>(kTopK));
      return top.empty() ? 0.0 : top.front().score;
    }
    case OpKind::kExplain:
      return snapshot.ExplainTrust(local.a, local.b).trust;
    default:
      return snapshot.Trust(local.a, local.b);
  }
}

std::string EncodeWire(const api::Request& request, api::WireProtocol wire) {
  return wire == api::WireProtocol::kBinary ? api::EncodeRequestBinary(request)
                                            : api::EncodeRequest(request);
}

// Times a read stream through Frontend::Dispatch; returns the median ns.
double MedianDispatchNs(api::Frontend* frontend, const std::vector<Op>& reads,
                        size_t count) {
  std::vector<double> ns;
  for (size_t i = 0; i < count && i < reads.size(); ++i) {
    const api::Request request =
        MakeRequest(reads[i], static_cast<int64_t>(i) + 1);
    const int64_t start = NowNs();
    frontend->Dispatch(request);
    ns.push_back(static_cast<double>(NowNs() - start));
  }
  return Median(std::move(ns));
}

// The closed-loop round trip: one blocking socket client against an
// in-process ConnectionServer over the same frontend.
Result<std::vector<double>> ClosedLoopRtt(api::Frontend* frontend,
                                          const WorkloadSpec& spec,
                                          const std::vector<Op>& reads,
                                          const std::string& socket) {
  server::ConnectionServerOptions options;
  options.num_threads = 2;
  options.initial_protocol = spec.wire;
  server::ConnectionServer server(frontend, options);
  WOT_ASSIGN_OR_RETURN(int listen_fd, api::ListenUnixSocket(socket));
  Status served = Status::OK();
  std::thread serving([&] { served = server.Serve(listen_fd); });
  std::vector<double> rtt_ns;
  Status status = Status::OK();
  {
    Result<std::unique_ptr<api::SocketClient>> client =
        api::SocketClient::Connect(socket, spec.wire);
    if (!client.ok()) {
      status = client.status();
    } else {
      for (size_t i = 0; i < kRttWarmup + kRttReads && status.ok(); ++i) {
        const api::Request request = MakeRequest(
            reads[i % reads.size()], static_cast<int64_t>(i) + 1);
        const int64_t start = NowNs();
        Result<api::Response> response = client.ValueOrDie()->Call(request);
        const int64_t elapsed = NowNs() - start;
        if (!response.ok()) status = response.status();
        if (i >= kRttWarmup) rtt_ns.push_back(static_cast<double>(elapsed));
      }
    }
  }
  server.RequestStop();
  serving.join();
  WOT_RETURN_IF_ERROR(status);
  WOT_RETURN_IF_ERROR(served);
  return rtt_ns;
}

DurabilityStats SumDurability(const storage::DurableService& durable) {
  if (durable.router == nullptr) return durable.service->durability_stats();
  DurabilityStats total;
  for (size_t s = 0; s < durable.router->num_shards(); ++s) {
    const DurabilityStats shard =
        durable.router->shard_service(s)->durability_stats();
    total.wal_bytes += shard.wal_bytes;
    total.wal_records += shard.wal_records;
    total.segment_bytes += shard.segment_bytes;
  }
  return total;
}

Status DispatchOk(api::Frontend* frontend, const Op& op, int64_t id,
                  api::Response* response) {
  *response = frontend->Dispatch(MakeRequest(op, id));
  if (!response->status.ok()) {
    return Status::Internal("trace write rejected: " +
                            response->status.ToString());
  }
  return Status::OK();
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

Status TraceLayers(const WorkloadSpec& spec, const Dataset& dataset,
                   uint64_t seed, bool smoke, const std::string& out_dir,
                   LayerMetrics* metrics) {
  LayerMetrics& m = *metrics;
  const size_t shards = spec.shards;
  const size_t replay_reads = smoke ? 500 : kReplayReads;
  const int64_t write_cycles = smoke ? 2 : kWriteCycles;

  // The same stream the served run starts with: reads and cycles come
  // from the seed, independent of each other.
  RequestGen gen(spec, dataset, seed);
  std::vector<Op> reads;
  double gap = 0;
  for (size_t i = 0; i < std::max(replay_reads, kRttWarmup + kRttReads); ++i) {
    reads.push_back(gen.NextRead(&gap));
  }
  std::vector<std::vector<Op>> cycles;
  for (int64_t c = 0; c < write_cycles; ++c) cycles.push_back(gen.NextCycle());
  const std::vector<Op> pending = gen.Pending(kProbePending);

  // Cost of one empty span: the tracing overhead per recorded call.
  {
    SpanRecorder scratch;
    const int64_t start = NowNs();
    for (size_t i = 0; i < kOverheadSpans; ++i) {
      scratch.End(scratch.Begin("empty", -1, 0));
    }
    m["trace.span_overhead_ns"] =
        static_cast<double>(NowNs() - start) / kOverheadSpans;
  }

  // service: boot of the topology (derivation from the dataset).
  const int64_t boot_start = NowNs();
  WOT_ASSIGN_OR_RETURN(std::unique_ptr<Oracle> topology,
                       Oracle::Boot(spec, dataset));
  m["service.boot_ms"] = static_cast<double>(NowNs() - boot_start) / 1e6;
  api::Frontend* frontend = topology->frontend();
  std::vector<std::unique_ptr<api::ServiceFrontend>> own_legs;
  std::vector<api::Frontend*> legs;
  for (size_t s = 0; s < shards; ++s) {
    if (shards == 1) {
      legs.push_back(frontend);
    } else {
      own_legs.push_back(
          std::make_unique<api::ServiceFrontend>(topology->shard_service(s)));
      legs.push_back(own_legs.back().get());
    }
  }

  // Read replay, one request at a time, a span around every call.
  SpanRecorder spans;
  std::vector<double> encode_request, dispatch_frame, decode_response,
      decode_request, dispatch, encode_response, envelope, router_overhead,
      query;
  double sink = 0;
  for (size_t i = 0; i < replay_reads; ++i) {
    const Op& op = reads[i];
    const int64_t id = static_cast<int64_t>(i) + 1;
    const api::Request request = MakeRequest(op, id);
    const int root = spans.Begin("request", -1, id);

    int span = spans.Begin("api.encode_request", root, id);
    const std::string frame = EncodeWire(request, spec.wire);
    encode_request.push_back(spans.End(span));

    span = spans.Begin("api.dispatch_frame", root, id);
    const std::string reply = spec.wire == api::WireProtocol::kBinary
                                  ? frontend->DispatchFrame(frame)
                                  : frontend->DispatchLine(frame);
    dispatch_frame.push_back(spans.End(span));

    api::Response decoded;
    span = spans.Begin("api.decode_response", root, id);
    const api::ApiStatus decode_status =
        spec.wire == api::WireProtocol::kBinary
            ? api::DecodeResponseBinary(reply, &decoded)
            : api::DecodeResponse(reply, &decoded);
    decode_response.push_back(spans.End(span));
    if (!decode_status.ok() || !decoded.status.ok()) {
      return Status::Internal("trace read " + std::to_string(id) +
                              " failed: " + decoded.status.ToString());
    }

    api::Request server_side;
    span = spans.Begin("api.decode_request", root, id);
    if (spec.wire == api::WireProtocol::kBinary) {
      api::DecodeRequestBinary(frame, &server_side);
    } else {
      api::DecodeRequest(frame, &server_side);
    }
    decode_request.push_back(spans.End(span));

    span = spans.Begin("api.dispatch", root, id);
    const api::Response response = frontend->Dispatch(server_side);
    const double dispatch_ns = spans.End(span);
    dispatch.push_back(dispatch_ns);

    span = spans.Begin("api.encode_response", root, id);
    sink += static_cast<double>(
        spec.wire == api::WireProtocol::kBinary
            ? api::EncodeResponseBinary(response).size()
            : api::EncodeResponse(response).size());
    encode_response.push_back(spans.End(span));

    // The owning shard's leg, addressed by shard-local indices.
    const size_t shard = op.a % shards;
    Op local = op;
    local.a = static_cast<uint32_t>(op.a / shards);
    local.b = static_cast<uint32_t>(op.b / shards);
    span = spans.Begin("api.leg_dispatch", root, id);
    legs[shard]->Dispatch(MakeRequest(local, id));
    const double leg_ns = spans.End(span);

    const std::shared_ptr<const TrustSnapshot> snapshot =
        topology->shard_service(shard)->Snapshot();
    span = spans.Begin("service.query", root, id);
    sink += QuerySnapshot(*snapshot, local);
    const double query_ns = spans.End(span);
    query.push_back(query_ns);

    spans.End(root);
    envelope.push_back(leg_ns - query_ns);
    router_overhead.push_back(dispatch_ns - leg_ns);
  }
  if (std::isnan(sink)) return Status::Internal("unreachable");
  m["api.encode_request_ns.p50"] = Median(encode_request);
  m["api.decode_request_ns.p50"] = Median(decode_request);
  m["api.encode_response_ns.p50"] = Median(encode_response);
  m["api.decode_response_ns.p50"] = Median(decode_response);
  m["api.dispatch_frame_ns.p50"] = Median(dispatch_frame);
  m["api.dispatch_frame_ns.p99"] = Percentile(dispatch_frame, 0.99);
  m["api.dispatch_ns.p50"] = Median(dispatch);
  m["api.envelope_ns.p50"] = Median(envelope);
  m["router.overhead_ns.p50"] = Median(router_overhead);
  m["service.query_ns.p50"] = Median(query);
  m["service.query_ns.p99"] = Percentile(query, 0.99);
  WOT_RETURN_IF_ERROR(spans.Write(out_dir + "/spans.json"));

  // server: closed-loop round trip and what the listed stages leave over.
  WOT_ASSIGN_OR_RETURN(std::vector<double> rtt,
                       ClosedLoopRtt(frontend, spec, reads, "trace.sock"));
  m["server.rtt_closed_us.p50"] = Median(rtt) / 1e3;
  m["server.transport_residual_us"] =
      (Median(rtt) - Median(encode_request) - Median(dispatch_frame) -
       Median(decode_response)) /
      1e3;

  // router: serial vs pooled fan-out on the same reads (one shard has no
  // fan-out, so both read the same path there).
  api::ShardRouter* router = topology->router();
  if (router != nullptr) router->set_parallel_fanout(false);
  m["router.read_serial_ns.p50"] =
      MedianDispatchNs(frontend, reads, kFanoutReads);
  if (router != nullptr) router->set_parallel_fanout(true);
  m["router.read_pooled_ns.p50"] =
      MedianDispatchNs(frontend, reads, kFanoutReads);

  // service: the write cycles in memory (commits alternate serial and
  // pooled fan-out when sharded).
  const telemetry::MetricsSnapshot before = frontend->ScrapeMetrics();
  std::vector<double> ingest_us, commit_ms, commit_serial, commit_pooled;
  double categories = 0, rows = 0, postings = 0, touched_users = 0;
  int64_t id = 1;
  for (int64_t c = 0; c < write_cycles; ++c) {
    const bool pooled = c % 2 == 1;
    if (router != nullptr) router->set_parallel_fanout(pooled);
    std::set<int64_t> touched;
    for (const Op& op : cycles[static_cast<size_t>(c)]) {
      api::Response response;
      const int64_t start = NowNs();
      WOT_RETURN_IF_ERROR(DispatchOk(frontend, op, id++, &response));
      const double elapsed = static_cast<double>(NowNs() - start);
      if (op.kind == OpKind::kCommit) {
        commit_ms.push_back(elapsed / 1e6);
        (pooled ? commit_pooled : commit_serial).push_back(elapsed / 1e6);
        const auto& result = std::get<api::CommitResult>(response.payload);
        categories += static_cast<double>(result.categories_recomputed);
        rows += static_cast<double>(result.affiliation_rows_recomputed);
        postings += static_cast<double>(result.postings_rebuilt);
        touched_users += static_cast<double>(touched.size());
      } else {
        ingest_us.push_back(elapsed / 1e3);
        touched.insert(op.kind == OpKind::kIngestUser
                           ? std::get<api::IngestResult>(response.payload)
                                 .assigned_id
                           : static_cast<int64_t>(op.a));
      }
    }
  }
  if (router != nullptr) router->set_parallel_fanout(true);
  const telemetry::MetricsSnapshot after = frontend->ScrapeMetrics();
  const double commits = static_cast<double>(write_cycles);
  m["router.commit_serial_ms.p50"] = Median(commit_serial);
  m["router.commit_pooled_ms.p50"] = Median(commit_pooled);
  m["service.ingest_us.p50"] = Median(ingest_us);
  m["service.commit_ms.p50"] = Median(commit_ms);
  for (const char* stage : {"update", "affiliation", "postings", "publish"}) {
    m[std::string("service.commit_") + stage + "_ms.mean"] =
        HistogramSumDelta(before, after,
                          std::string("service.commit_") + stage + "_ns") /
        commits / 1e6;
  }
  m["service.categories_recomputed"] = categories / commits;
  m["service.affiliation_rows_recomputed"] = rows / commits;
  m["service.postings_rebuilt"] = postings / commits;
  m["service.affiliation_rows_per_dirty_user"] = rows / touched_users;
  topology.reset();

  // storage: the same topology booted durably (fsync batch), the same
  // cycles plus acked-but-uncommitted ingests, then a recovery.
  const std::string store = out_dir + "/trace_store";
  std::filesystem::remove_all(store);
  storage::DurableBootOptions options;
  options.num_shards = shards;
  options.storage.fsync = storage::FsyncPolicy::kBatch;
  const auto seed_provider = [&]() -> Result<Dataset> { return dataset; };
  std::vector<double> durable_commit_ms;
  {
    const int64_t fresh_start = NowNs();
    WOT_ASSIGN_OR_RETURN(storage::DurableService durable,
                         storage::BootDurable(store, seed_provider, options));
    m["storage.boot_fresh_ms"] =
        static_cast<double>(NowNs() - fresh_start) / 1e6;
    for (const std::vector<Op>& cycle : cycles) {
      for (const Op& op : cycle) {
        api::Response response;
        const int64_t start = NowNs();
        WOT_RETURN_IF_ERROR(DispatchOk(durable.frontend, op, id++, &response));
        if (op.kind == OpKind::kCommit) {
          durable_commit_ms.push_back(
              static_cast<double>(NowNs() - start) / 1e6);
        }
      }
    }
    for (const Op& op : pending) {
      api::Response response;
      WOT_RETURN_IF_ERROR(DispatchOk(durable.frontend, op, id++, &response));
    }
    for (const std::unique_ptr<storage::StorageManager>& manager :
         durable.managers) {
      manager->WaitForIdle();
    }
    const telemetry::MetricsSnapshot scrape = durable.frontend->ScrapeMetrics();
    m["storage.wal_append_us.p50"] =
        HistogramQuantile(scrape, "storage.wal_append_ns", 0.5) / 1e3;
    m["storage.wal_append_us.p90"] =
        HistogramQuantile(scrape, "storage.wal_append_ns", 0.9) / 1e3;
    m["storage.wal_fsync_us.p50"] =
        HistogramQuantile(scrape, "storage.wal_fsync_ns", 0.5) / 1e3;
    m["storage.segment_write_ms.p50"] =
        HistogramQuantile(scrape, "storage.segment_write_ns", 0.5) / 1e6;
    const DurabilityStats durability = SumDurability(durable);
    m["storage.wal_bytes_per_ingest"] =
        static_cast<double>(durability.wal_bytes) / kProbePending;
    m["storage.segment_mb"] =
        static_cast<double>(durability.segment_bytes) / (1024.0 * 1024.0);
  }
  m["storage.log_commit_ms"] = Median(durable_commit_ms) - Median(commit_ms);
  {
    const int64_t recovered_start = NowNs();
    WOT_ASSIGN_OR_RETURN(storage::DurableService recovered,
                         storage::BootDurable(store, seed_provider, options));
    m["storage.boot_recovered_ms"] =
        static_cast<double>(NowNs() - recovered_start) / 1e6;
    m["storage.replayed_records"] =
        static_cast<double>(recovered.replayed_records);
  }
  std::filesystem::remove_all(store);
  return Status::OK();
}

}  // namespace e2e
}  // namespace wot
