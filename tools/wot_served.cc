// wot_served — the resident trust server.
//
// Boots ONE serving frontend and answers API frames — NDJSON lines, or
// v2 binary frames after an upgrade handshake / magic-byte sniff / with
// --protocol binary (see docs/wire_protocol.md) — until EOF. The whole
// point is amortization: thousands of pipelined queries share a single
// service boot, where `wot_cli query` used to re-derive the web of
// trust per invocation.
//
//   # serve a dataset over stdin/stdout (great for piping request scripts)
//   wot_served --data community/ < requests.ndjson > responses.ndjson
//
//   # synthetic boot, resident behind a unix socket, 8 dispatch threads
//   wot_served --users 4000 --seed 42 --socket /tmp/wot.sock --threads 8 &
//   wot_cli query --connect /tmp/wot.sock --source alice --top_k 10
//
//   # the same frontend on TCP, next to (or instead of) the unix socket
//   wot_served --users 4000 --listen 127.0.0.1:7777 &
//   wot_cli query --connect 127.0.0.1:7777 --source alice --top_k 10
//
//   # shard the population across 4 TrustServices behind the same wire
//   wot_served --users 100000 --shards 4 --socket /tmp/wot.sock &
//
// Exactly one "boot" line is logged to stderr per process lifetime; the
// round-trip smoke test counts it to prove the service is not re-booted
// between requests. With --shards N (default 1) the boot slices the
// dataset across N TrustService shards behind an api::ShardRouter — the
// wire protocol is unchanged (a one-shard router is bit-identical to the
// plain frontend; this binary serves the plain frontend then).
//
// Every transport — stdin/stdout, --socket, --listen — runs on the
// wot/server ConnectionServer (epoll event loop, per-connection FIFO,
// --threads dispatch pool) over the lock-free snapshot read path:
// stdin/stdout serves as one pre-accepted connection, sockets
// multiplex any number of simultaneous clients, and giving BOTH
// listener flags runs one ConnectionServer per listener over the one
// shared frontend. SIGINT/SIGTERM drain in-flight requests, flush, log
// the accepted-connection count and exit 0.
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "wot/api/frontend.h"
#include "wot/api/shard_router.h"
#include "wot/api/unix_socket.h"
#include "wot/io/binary_format.h"
#include "wot/io/dataset_csv.h"
#include "wot/replication/replica_frontend.h"
#include "wot/replication/replica_handle_impl.h"
#include "wot/replication/replica_service.h"
#include "wot/replication/replication_source.h"
#include "wot/server/connection_server.h"
#include "wot/service/trust_service.h"
#include "wot/storage/durable_boot.h"
#include "wot/synth/generator.h"
#include "wot/telemetry/metric_registry.h"
#include "wot/util/check.h"
#include "wot/util/flags.h"
#include "wot/util/string_util.h"
#include "wot/util/thread_annotations.h"

namespace wot {
namespace {

// Signal -> event-loop bridge: RequestStop is async-signal-safe, and the
// handler walks a fixed-size slot array (one per listener).
server::ConnectionServer* g_servers[2] = {nullptr, nullptr};

void HandleStopSignal(int) {
  for (server::ConnectionServer* server : g_servers) {
    if (server != nullptr) {
      server->RequestStop();
    }
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "wot_served: error: %s\n",
               status.ToString().c_str());
  return 1;
}

// --metrics_interval_secs: a background thread that scrapes the serving
// frontend every interval and logs ONE summary line to stderr, so an
// operator tailing the log sees load and latency without issuing
// `metrics` requests. Scraping never blocks the request path (the
// registry's hot path is a relaxed fetch-add; the scrape folds stripes).
class MetricsReporter {
 public:
  MetricsReporter(api::Frontend* frontend, int64_t interval_secs)
      : frontend_(frontend), interval_millis_(interval_secs * 1000) {
    thread_ = std::thread([this] { Run(); });
  }

  ~MetricsReporter() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }

 private:
  void Run() WOT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!stopping_) {
      cv_.WaitForMillis(mu_, interval_millis_);
      if (stopping_) break;
      Report();
    }
  }

  void Report() {
    telemetry::MetricsSnapshot snapshot = frontend_->ScrapeMetrics();
    auto value_of =
        [](const std::vector<std::pair<std::string, int64_t>>& values,
           std::string_view name) -> int64_t {
      for (const auto& [metric, value] : values) {
        if (metric == name) return value;
      }
      return 0;
    };
    // One request-latency view across every method.
    telemetry::HistogramSnapshot api_latency;
    for (const telemetry::HistogramSnapshot& h : snapshot.histograms) {
      if (h.name.rfind("api.latency_ns.", 0) != 0) continue;
      if (api_latency.buckets.empty()) {
        api_latency = h;
      } else {
        api_latency.MergeFrom(h);
      }
    }
    std::fprintf(
        stderr,
        "wot_served: metrics requests=%lld errors=%lld slow=%lld "
        "commits=%lld active_conns=%lld api_p50_us=%.1f "
        "api_p99_us=%.1f\n",
        static_cast<long long>(
            value_of(snapshot.counters, "api.requests_served")),
        static_cast<long long>(value_of(snapshot.counters, "api.errors")),
        static_cast<long long>(
            value_of(snapshot.counters, "api.slow_requests")),
        static_cast<long long>(
            value_of(snapshot.counters, "service.commits")),
        static_cast<long long>(
            value_of(snapshot.gauges, "server.connections_active")),
        api_latency.Quantile(0.5) / 1e3, api_latency.Quantile(0.99) / 1e3);
  }

  api::Frontend* frontend_;
  const int64_t interval_millis_;
  Mutex mu_;
  CondVar cv_;
  bool stopping_ WOT_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

Result<Dataset> BootDataset(const std::string& data, int64_t users,
                            int64_t seed) {
  if (!data.empty()) {
    if (std::filesystem::is_directory(data)) {
      return LoadDatasetCsv(data);
    }
    return LoadDatasetBinary(data);
  }
  if (users <= 0) {
    return Status::InvalidArgument("--users must be positive");
  }
  SynthConfig config;
  config.num_users = static_cast<size_t>(users);
  config.seed = static_cast<uint64_t>(seed);
  WOT_ASSIGN_OR_RETURN(SynthCommunity community,
                       GenerateCommunity(config));
  return std::move(community.dataset);
}

// Serves stdin/stdout as ONE ConnectionServer connection — the same
// event loop, per-connection FIFO, dispatch pool, framing bounds,
// upgrade/sniff negotiation and drain semantics as --socket/--listen,
// so all three transports behave uniformly (the ad-hoc getline loop
// this replaced knew nothing of backpressure or binary framing, and
// its stats reported zero connections). Regular-file stdin
// (`wot_served < requests.ndjson`) rides the server's unpollable-fd
// path. Returns at stdin EOF, a closed stdout (a downstream `| head`
// going away), or SIGINT/SIGTERM drain.
int ServeStdio(api::Frontend* frontend, int64_t threads,
               api::WireProtocol protocol, int64_t metrics_interval_secs) {
  server::ConnectionServerOptions options;
  options.num_threads = static_cast<int>(threads);
  options.initial_protocol = protocol;
  server::ConnectionServer server(frontend, options);
  // Transport counters (server.*) ride the frontend's scrape.
  frontend->AddMetricsSource(server.metrics_registry());
  std::unique_ptr<MetricsReporter> reporter;
  if (metrics_interval_secs > 0) {
    reporter =
        std::make_unique<MetricsReporter>(frontend, metrics_interval_secs);
  }
  g_servers[0] = &server;
  struct sigaction action{};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // The server owns (and closes) its fds; keep the process's own 0/1
  // usable until exit by handing over duplicates.
  Status status =
      server.ServeConnection(::dup(STDIN_FILENO), ::dup(STDOUT_FILENO));
  g_servers[0] = nullptr;
  server::ConnectionServerStats stats = server.stats();
  std::fprintf(stderr,
               "wot_served: stdio session done (%lld requests "
               "dispatched)\n",
               static_cast<long long>(stats.requests_dispatched));
  if (!status.ok()) return Fail(status);
  return 0;
}

struct Listener {
  std::string label;  // what to log ("unix socket /x", "tcp 1.2.3.4:5")
  int fd = -1;
};

// Runs one ConnectionServer per listener over the shared frontend; each
// gets its own `threads`-sized dispatch pool. Blocks until every server
// drained (SIGINT/SIGTERM stops them all).
int ServeListeners(api::Frontend* frontend,
                   const std::vector<Listener>& listeners,
                   int64_t threads, api::WireProtocol protocol,
                   int64_t metrics_interval_secs) {
  server::ConnectionServerOptions options;
  options.num_threads = static_cast<int>(threads);
  options.initial_protocol = protocol;
  // The signal-handler bridge has one fixed slot per listener kind.
  WOT_CHECK_LE(listeners.size(),
               sizeof(g_servers) / sizeof(g_servers[0]));
  std::vector<std::unique_ptr<server::ConnectionServer>> servers;
  servers.reserve(listeners.size());
  for (size_t i = 0; i < listeners.size(); ++i) {
    servers.push_back(
        std::make_unique<server::ConnectionServer>(frontend, options));
    // Each listener's transport counters merge into the one scrape.
    frontend->AddMetricsSource(servers.back()->metrics_registry());
    g_servers[i] = servers.back().get();
  }
  std::unique_ptr<MetricsReporter> reporter;
  if (metrics_interval_secs > 0) {
    reporter =
        std::make_unique<MetricsReporter>(frontend, metrics_interval_secs);
  }

  struct sigaction action{};
  action.sa_handler = HandleStopSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  for (size_t i = 0; i < listeners.size(); ++i) {
    std::fprintf(stderr,
                 "wot_served: listening on %s (%lld dispatch threads)\n",
                 listeners[i].label.c_str(),
                 static_cast<long long>(threads));
  }

  // One listener's Serve() returning — clean drain or fatal event-loop
  // error — stops the whole fleet: a process silently serving only half
  // its endpoints is worse than one that exits loudly and gets
  // restarted.
  std::vector<Status> statuses(listeners.size());
  auto serve_one = [&](size_t i) {
    statuses[i] = servers[i]->Serve(listeners[i].fd);
    if (!statuses[i].ok()) {
      std::fprintf(stderr, "wot_served: %s listener failed: %s\n",
                   listeners[i].label.c_str(),
                   statuses[i].ToString().c_str());
    }
    for (const std::unique_ptr<server::ConnectionServer>& other :
         servers) {
      other->RequestStop();  // idempotent; no-op on the one returning
    }
  };
  std::vector<std::thread> threads_running;
  for (size_t i = 1; i < listeners.size(); ++i) {
    threads_running.emplace_back(serve_one, i);
  }
  serve_one(0);
  for (std::thread& thread : threads_running) {
    thread.join();
  }

  int64_t accepted = 0;
  int64_t dispatched = 0;
  for (size_t i = 0; i < listeners.size(); ++i) {
    g_servers[i] = nullptr;
    server::ConnectionServerStats stats = servers[i]->stats();
    accepted += stats.connections_accepted;
    dispatched += stats.requests_dispatched;
  }
  std::fprintf(stderr,
               "wot_served: shutdown (%lld connections accepted, %lld "
               "requests dispatched)\n",
               static_cast<long long>(accepted),
               static_cast<long long>(dispatched));
  for (const Status& status : statuses) {
    if (!status.ok()) return Fail(status);
  }
  return 0;
}

int Main(int argc, char** argv) {
  std::string data;
  int64_t users = 1000;
  int64_t seed = 42;
  std::string socket_path;
  std::string listen_hostport;
  std::string protocol = "ndjson";
  int64_t threads = 4;
  int64_t shards = 1;
  std::string data_dir;
  std::string fsync = "batch";
  int64_t metrics_interval_secs = 0;
  int64_t slow_request_ms = -1;
  std::string replica_of;
  int64_t replica_shard = 0;
  std::string replicas_spec;
  int64_t write_quorum = 1;
  FlagParser flags(
      "wot_served",
      "Resident trust server: boots one serving frontend (optionally "
      "sharded across N TrustServices) and answers NDJSON API frames "
      "(one per line) on stdin/stdout, or concurrently on --socket "
      "and/or --listen");
  flags.AddString("data", &data,
                  "dataset directory or .wotb file to serve (omit for a "
                  "synthetic community)");
  flags.AddInt64("users", &users,
                 "synthetic community size (ignored with --data)");
  flags.AddInt64("seed", &seed, "synthetic generator seed");
  flags.AddString("socket", &socket_path,
                  "listen on this unix socket instead of stdin/stdout");
  flags.AddString("listen", &listen_hostport,
                  "listen on this TCP host:port (IPv4 literal; empty "
                  "host binds 0.0.0.0, port 0 picks one). May be "
                  "combined with --socket");
  flags.AddInt64("threads", &threads,
                 "dispatch threads per --socket/--listen connection "
                 "server");
  flags.AddInt64("shards", &shards,
                 "partition users across this many TrustService shards "
                 "behind a ShardRouter (1 = unsharded)");
  flags.AddString("data_dir", &data_dir,
                  "durable storage directory: mutations append to a "
                  "write-ahead log before they are acknowledged, commits "
                  "write snapshot segments, and a restart recovers the "
                  "full pre-crash state (instant boot; --data/--users "
                  "seed only the FIRST boot of an empty directory)");
  flags.AddString("fsync", &fsync,
                  "--data_dir fsync policy: 'always' (every record), "
                  "'batch' (commits + every ~64 records), or 'off' "
                  "(page cache only)");
  flags.AddInt64("metrics_interval_secs", &metrics_interval_secs,
                 "log a one-line telemetry summary (requests, errors, "
                 "commits, api p50/p99) to stderr every N seconds "
                 "(0 = off)");
  flags.AddInt64("slow_request_ms", &slow_request_ms,
                 "log a WARNING with a per-request trace id for every "
                 "request slower than this many milliseconds (0 logs "
                 "every request; -1 = off)");
  flags.AddString("replica-of", &replica_of,
                  "follow the primary at this address ('unix:PATH' or "
                  "'HOST:PORT'): bootstrap from its newest snapshot "
                  "segment into --data_dir, stream its WAL deltas, serve "
                  "reads, and reject writes until `wot_cli replica "
                  "promote`");
  flags.AddInt64("replica-shard", &replica_shard,
                 "which upstream shard to mirror with --replica-of (one "
                 "replica process per shard of a sharded primary)");
  flags.AddString("replicas", &replicas_spec,
                  "attach read replicas to a sharded primary: "
                  "comma-separated SHARD=ADDRESS pairs (address as in "
                  "--replica-of). Point reads and topk legs fan out "
                  "across healthy, caught-up replicas; commits still go "
                  "to the shard primaries");
  flags.AddInt64("write_quorum", &write_quorum,
                 "with --replicas: a commit's epoch only advances after "
                 "this many members of each shard's set (primary "
                 "included) applied it (1 = today's primary-only "
                 "behavior)");
  flags.AddString("protocol", &protocol,
                  "initial wire protocol on every transport: 'ndjson' "
                  "(v1 lines; connections may still upgrade to v2 via "
                  "the handshake or magic-byte sniff) or 'binary' (v2 "
                  "frames from the first byte, no NDJSON)");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed);
  Result<api::WireProtocol> wire = api::WireProtocolFromName(protocol);
  if (!wire.ok()) {
    return Fail(Status::InvalidArgument(wire.status().ToString() + "\n" +
                                        flags.Usage()));
  }
  if (threads <= 0) {
    // Validated before the (expensive) dataset boot.
    return Fail(Status::InvalidArgument(
        "--threads must be positive, got " + std::to_string(threads) +
        "\n" + flags.Usage()));
  }
  if (shards <= 0) {
    return Fail(Status::InvalidArgument(
        "--shards must be positive, got " + std::to_string(shards) +
        "\n" + flags.Usage()));
  }
  if (metrics_interval_secs < 0) {
    return Fail(Status::InvalidArgument(
        "--metrics_interval_secs must be >= 0 (0 = off), got " +
        std::to_string(metrics_interval_secs) + "\n" + flags.Usage()));
  }
  if (slow_request_ms < -1) {
    return Fail(Status::InvalidArgument(
        "--slow_request_ms must be >= 0, or -1 for off, got " +
        std::to_string(slow_request_ms) + "\n" + flags.Usage()));
  }
  if (!replica_of.empty()) {
    if (data_dir.empty()) {
      return Fail(Status::InvalidArgument(
          "--replica-of requires --data_dir (the replica persists what "
          "it mirrors so restarts resume from a WAL delta, never a full "
          "re-ship)\n" +
          flags.Usage()));
    }
    if (!replicas_spec.empty()) {
      return Fail(Status::InvalidArgument(
          "--replica-of and --replicas are mutually exclusive: a process "
          "is either a follower or a primary with a replica set\n" +
          flags.Usage()));
    }
    if (shards != 1) {
      return Fail(Status::InvalidArgument(
          "--replica-of mirrors exactly one upstream shard (pick it "
          "with --replica-shard); run one replica process per shard "
          "instead of --shards " +
          std::to_string(shards) + "\n" + flags.Usage()));
    }
    if (replica_shard < 0) {
      return Fail(Status::InvalidArgument(
          "--replica-shard must be >= 0, got " +
          std::to_string(replica_shard) + "\n" + flags.Usage()));
    }
  }
  if (write_quorum < 1) {
    return Fail(Status::InvalidArgument(
        "--write_quorum must be >= 1 (1 = primary-only), got " +
        std::to_string(write_quorum) + "\n" + flags.Usage()));
  }

  Result<storage::FsyncPolicy> fsync_policy =
      storage::FsyncPolicyFromName(fsync);
  if (!fsync_policy.ok()) {
    return Fail(Status::InvalidArgument(fsync_policy.status().ToString() +
                                        "\n" + flags.Usage()));
  }

  // A resident server must outlive any client: broken pipes surface as
  // write errors (handled per connection), never a fatal SIGPIPE.
  signal(SIGPIPE, SIG_IGN);

  // Boot the frontend: a plain single-service frontend, or a shard
  // router slicing the dataset across N services — either one
  // optionally backed by a --data_dir durable store. Exactly one "boot"
  // line is logged either way — the round-trip smoke counts it (and the
  // stats method's service_boots counter: 1 unsharded, N sharded).
  std::unique_ptr<TrustService> service;
  std::unique_ptr<api::ServiceFrontend> plain_frontend;
  std::unique_ptr<api::ShardRouter> router;
  storage::DurableService durable;
  std::unique_ptr<replication::ReplicaService> replica;
  std::unique_ptr<api::ServiceFrontend> replica_inner;
  std::unique_ptr<replication::ReplicaFrontend> replica_frontend;
  std::unique_ptr<replication::ReplicationSource> repl_source;
  api::Frontend* frontend = nullptr;
  if (!replica_of.empty()) {
    replication::ReplicaOptions ropts;
    ropts.shard = replica_shard;
    ropts.storage.fsync = fsync_policy.ValueOrDie();
    Result<std::unique_ptr<replication::ReplicaService>> booted =
        replication::ReplicaService::Create(
            data_dir,
            replication::ReconnectingClient::ForAddress(replica_of),
            ropts);
    if (!booted.ok()) return Fail(booted.status());
    replica = std::move(booted).ValueOrDie();
    // Bootstrap before opening listeners: the primary may still be
    // starting, so retry the catch-up (200ms apart, ~2 minutes) until a
    // service exists to serve from.
    int attempts = 0;
    while (replica->service() == nullptr) {
      Status caught = replica->CatchUp();
      if (replica->service() != nullptr) break;
      if (++attempts >= 600) {
        return Fail(Status::Internal(
            "replica bootstrap from " + replica_of + " gave up: " +
            (caught.ok() ? std::string("no snapshot segment offered")
                         : caught.ToString())));
      }
      if (!caught.ok() && attempts % 25 == 1) {
        std::fprintf(stderr,
                     "wot_served: waiting for primary %s: %s\n",
                     replica_of.c_str(), caught.ToString().c_str());
      }
      ::usleep(200 * 1000);
    }
    replica_inner =
        std::make_unique<api::ServiceFrontend>(replica->service());
    replica_frontend = std::make_unique<replication::ReplicaFrontend>(
        replica_inner.get(), replica.get());
    replica_frontend->AddMetricsSource(
        replica->manager()->metrics_registry());
    replica->StartPuller();
    frontend = replica_frontend.get();
    std::shared_ptr<const TrustSnapshot> snapshot =
        replica->service()->Snapshot();
    std::fprintf(
        stderr,
        "wot_served: replica boot v%llu following %s shard %lld (%zu "
        "users, source v%llu, fsync=%s)\n",
        static_cast<unsigned long long>(snapshot->version()),
        replica_of.c_str(), static_cast<long long>(replica_shard),
        snapshot->num_users(),
        static_cast<unsigned long long>(replica->source_version()),
        storage::FsyncPolicyName(fsync_policy.ValueOrDie()));
  } else if (!data_dir.empty()) {
    storage::DurableBootOptions options;
    options.storage.fsync = fsync_policy.ValueOrDie();
    options.num_shards = static_cast<size_t>(shards);
    // The seed is only generated/loaded when the directory is empty —
    // recovery never pays for it.
    Result<storage::DurableService> booted = storage::BootDurable(
        data_dir,
        [&]() { return BootDataset(data, users, seed); }, options);
    if (!booted.ok()) return Fail(booted.status());
    durable = std::move(booted).ValueOrDie();
    frontend = durable.frontend;
    uint64_t version = 0;
    size_t total_users = 0;
    if (durable.router != nullptr) {
      version = durable.router->epoch();
      for (size_t s = 0; s < durable.router->num_shards(); ++s) {
        total_users +=
            durable.router->shard_service(s)->Snapshot()->num_users();
      }
    } else {
      std::shared_ptr<const TrustSnapshot> snapshot =
          durable.service->Snapshot();
      version = snapshot->version();
      total_users = snapshot->num_users();
    }
    std::fprintf(stderr,
                 "wot_served: %s boot v%llu from %s (%zu users, %llu "
                 "wal records replayed, fsync=%s)\n",
                 durable.recovered ? "durable-recovery" : "durable-fresh",
                 static_cast<unsigned long long>(version),
                 data_dir.c_str(), total_users,
                 static_cast<unsigned long long>(durable.replayed_records),
                 storage::FsyncPolicyName(fsync_policy.ValueOrDie()));
  } else if (shards == 1) {
    Result<Dataset> dataset = BootDataset(data, users, seed);
    if (!dataset.ok()) return Fail(dataset.status());
    Result<std::unique_ptr<TrustService>> booted =
        TrustService::Create(std::move(dataset).ValueOrDie());
    if (!booted.ok()) return Fail(booted.status());
    service = std::move(booted).ValueOrDie();
    plain_frontend = std::make_unique<api::ServiceFrontend>(service.get());
    frontend = plain_frontend.get();
    std::shared_ptr<const TrustSnapshot> snapshot = service->Snapshot();
    std::fprintf(stderr,
                 "wot_served: boot snapshot v%llu (protocol v%lld, %zu "
                 "users, %zu categories, %zu ratings)\n",
                 static_cast<unsigned long long>(snapshot->version()),
                 static_cast<long long>(api::kProtocolVersion),
                 snapshot->num_users(), snapshot->num_categories(),
                 snapshot->num_ratings());
  } else {
    Result<Dataset> dataset = BootDataset(data, users, seed);
    if (!dataset.ok()) return Fail(dataset.status());
    Result<std::unique_ptr<api::ShardRouter>> booted =
        api::ShardRouter::Create(std::move(dataset).ValueOrDie(),
                                 static_cast<size_t>(shards));
    if (!booted.ok()) return Fail(booted.status());
    router = std::move(booted).ValueOrDie();
    frontend = router.get();
    size_t total_users = 0;
    size_t total_ratings = 0;
    for (size_t s = 0; s < router->num_shards(); ++s) {
      std::shared_ptr<const TrustSnapshot> snapshot =
          router->shard_service(s)->Snapshot();
      total_users += snapshot->num_users();
      total_ratings += snapshot->num_ratings();
    }
    std::fprintf(stderr,
                 "wot_served: boot epoch %llu over %zu shards (protocol "
                 "v%lld, %zu users, %zu ratings kept)\n",
                 static_cast<unsigned long long>(router->epoch()),
                 router->num_shards(),
                 static_cast<long long>(api::kProtocolVersion),
                 total_users, total_ratings);
  }
  // A durable primary (any server with a --data_dir that is not itself
  // a replica) serves repl_fetch so followers can bootstrap from its
  // segments and stream its WAL; a promoted replica already serves it
  // through its own ReplicaService.
  if (!data_dir.empty() && replica == nullptr) {
    replication::ReplicationSource::VersionProvider provider;
    if (durable.router != nullptr) {
      api::ShardRouter* shard_router = durable.router.get();
      provider = [shard_router](int64_t shard) {
        return shard_router->shard_service(static_cast<size_t>(shard))
            ->Snapshot()
            ->version();
      };
    } else {
      TrustService* durable_service = durable.service.get();
      provider = [durable_service](int64_t) {
        return durable_service->Snapshot()->version();
      };
    }
    repl_source = std::make_unique<replication::ReplicationSource>(
        data_dir, static_cast<size_t>(shards), std::move(provider));
    frontend->set_replication_handler(repl_source.get());
    frontend->AddMetricsSource(repl_source->metrics_registry());
  }
  if (!replicas_spec.empty()) {
    api::ShardRouter* target =
        durable.router != nullptr ? durable.router.get() : router.get();
    if (target == nullptr) {
      return Fail(Status::InvalidArgument(
          "--replicas requires a sharded primary (--shards >= 2)\n" +
          flags.Usage()));
    }
    for (const std::string& entry : Split(replicas_spec, ',')) {
      if (entry.empty()) continue;
      const size_t eq = entry.find('=');
      Result<int64_t> shard_id =
          eq == std::string::npos
              ? Result<int64_t>(Status::InvalidArgument("missing '='"))
              : ParseInt64(entry.substr(0, eq));
      if (!shard_id.ok() || shard_id.ValueOrDie() < 0 ||
          shard_id.ValueOrDie() >= shards ||
          eq + 1 >= entry.size()) {
        return Fail(Status::InvalidArgument(
            "--replicas entry '" + entry +
            "' is not SHARD=ADDRESS with 0 <= SHARD < " +
            std::to_string(shards) + "\n" + flags.Usage()));
      }
      const std::string address = entry.substr(eq + 1);
      target->AddReplica(
          static_cast<size_t>(shard_id.ValueOrDie()),
          replication::ClientReplicaHandle::ForAddress(address));
      std::fprintf(stderr,
                   "wot_served: replica %s attached to shard %lld\n",
                   address.c_str(),
                   static_cast<long long>(shard_id.ValueOrDie()));
    }
    target->set_write_quorum(static_cast<size_t>(write_quorum));
  }
  std::vector<Listener> listeners;
  if (!socket_path.empty()) {
    Result<int> fd = api::ListenUnixSocket(socket_path, /*backlog=*/64);
    if (!fd.ok()) return Fail(fd.status());
    listeners.push_back({"unix socket " + socket_path, fd.ValueOrDie()});
  }
  if (!listen_hostport.empty()) {
    std::string bound;
    Result<int> fd =
        api::ListenTcpSocket(listen_hostport, /*backlog=*/64, &bound);
    if (!fd.ok()) return Fail(fd.status());
    listeners.push_back({"tcp " + bound, fd.ValueOrDie()});
  }
  frontend->set_slow_request_threshold_millis(slow_request_ms);
  if (!listeners.empty()) {
    return ServeListeners(frontend, listeners, threads, wire.ValueOrDie(),
                          metrics_interval_secs);
  }
  return ServeStdio(frontend, threads, wire.ValueOrDie(),
                    metrics_interval_secs);
}

}  // namespace
}  // namespace wot

int main(int argc, char** argv) { return wot::Main(argc, argv); }
