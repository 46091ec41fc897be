// wot_cli — command-line front end to the library.
//
//   wot_cli generate --users 4000 --seed 42 --out community/
//   wot_cli stats    --data community/
//   wot_cli convert  --data community/ --binary community.wotb
//   wot_cli derive   --data community/ --top_k 10 --out derived.csv
//   wot_cli validate --data community/
//   wot_cli query    --data community/ --source alice --top_k 10
//   wot_cli query    --data community/ --source alice --target bob --explain
//   wot_cli query    --connect /tmp/wot.sock --source alice --top_k 10
//
// `--data` accepts either a CSV dataset directory (see
// wot/io/dataset_csv.h) or a .wotb binary file. Users are addressed by
// name or by numeric index. Unknown subcommands and flags exit nonzero
// with a usage message.
//
// `query` is a thin client of the versioned API (wot/api): with --connect
// it talks NDJSON to a resident `wot_served --socket` process, otherwise
// it boots an in-process service and dispatches through the very same
// ServiceFrontend, so both paths return identical responses.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <variant>

#include "wot/api/client.h"
#include "wot/api/shard_router.h"
#include "wot/community/stats.h"
#include "wot/eval/density.h"
#include "wot/eval/roc.h"
#include "wot/eval/validation.h"
#include "wot/io/binary_format.h"
#include "wot/io/csv.h"
#include "wot/io/dataset_csv.h"
#include "wot/service/trust_service.h"
#include "wot/storage/durable_boot.h"
#include "wot/storage/segment.h"
#include "wot/storage/storage_manager.h"
#include "wot/storage/wal.h"
#include "wot/synth/generator.h"
#include "wot/util/flags.h"
#include "wot/util/string_util.h"
#include "wot/util/table_printer.h"

namespace wot {
namespace {

Result<Dataset> LoadAny(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("--data is required");
  }
  if (std::filesystem::is_directory(path)) {
    return LoadDatasetCsv(path);
  }
  return LoadDatasetBinary(path);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Subcommand-local early exit: print the error and return exit code 1.
#define WOT_RETURN_IF_ERROR_CLI(expr)               \
  do {                                              \
    ::wot::Status _wot_cli_status = (expr);         \
    if (!_wot_cli_status.ok()) {                    \
      return Fail(_wot_cli_status);                 \
    }                                               \
  } while (false)

int CmdGenerate(int argc, char** argv) {
  int64_t users = 4000;
  int64_t seed = 42;
  std::string out;
  std::string binary;
  FlagParser flags("wot_cli generate",
                   "Generate a synthetic Epinions-shaped community");
  flags.AddInt64("users", &users, "community size");
  flags.AddInt64("seed", &seed, "generator seed");
  flags.AddString("out", &out, "CSV dataset directory to write");
  flags.AddString("binary", &binary, ".wotb file to write");
  WOT_RETURN_IF_ERROR_CLI(flags.Parse(argc, argv));
  if (out.empty() && binary.empty()) {
    return Fail(Status::InvalidArgument("need --out and/or --binary"));
  }
  SynthConfig config;
  config.num_users = static_cast<size_t>(users);
  config.seed = static_cast<uint64_t>(seed);
  Result<SynthCommunity> community = GenerateCommunity(config);
  if (!community.ok()) return Fail(community.status());
  const Dataset& dataset = community.ValueOrDie().dataset;
  std::printf("%s\n", dataset.Summary().c_str());
  if (!out.empty()) {
    Status s = SaveDatasetCsv(dataset, out);
    if (!s.ok()) return Fail(s);
    std::printf("wrote CSV dataset to %s\n", out.c_str());
  }
  if (!binary.empty()) {
    Status s = SaveDatasetBinary(dataset, binary);
    if (!s.ok()) return Fail(s);
    std::printf("wrote binary dataset to %s\n", binary.c_str());
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  std::string data;
  FlagParser flags("wot_cli stats", "Describe a dataset");
  flags.AddString("data", &data, "dataset directory or .wotb file");
  WOT_RETURN_IF_ERROR_CLI(flags.Parse(argc, argv));
  Result<Dataset> dataset = LoadAny(data);
  if (!dataset.ok()) return Fail(dataset.status());
  DatasetIndices indices(dataset.ValueOrDie());
  std::printf("%s",
              ComputeDatasetStats(dataset.ValueOrDie(), indices)
                  .ToString()
                  .c_str());
  return 0;
}

int CmdConvert(int argc, char** argv) {
  std::string data;
  std::string out;
  std::string binary;
  FlagParser flags("wot_cli convert",
                   "Convert between the CSV directory and binary formats");
  flags.AddString("data", &data, "input: dataset directory or .wotb file");
  flags.AddString("out", &out, "output CSV dataset directory");
  flags.AddString("binary", &binary, "output .wotb file");
  WOT_RETURN_IF_ERROR_CLI(flags.Parse(argc, argv));
  Result<Dataset> dataset = LoadAny(data);
  if (!dataset.ok()) return Fail(dataset.status());
  if (out.empty() && binary.empty()) {
    return Fail(Status::InvalidArgument("need --out and/or --binary"));
  }
  if (!out.empty()) {
    Status s = SaveDatasetCsv(dataset.ValueOrDie(), out);
    if (!s.ok()) return Fail(s);
  }
  if (!binary.empty()) {
    Status s = SaveDatasetBinary(dataset.ValueOrDie(), binary);
    if (!s.ok()) return Fail(s);
  }
  std::printf("converted %s\n", dataset.ValueOrDie().Summary().c_str());
  return 0;
}

int CmdDerive(int argc, char** argv) {
  std::string data;
  std::string out = "derived_trust.csv";
  int64_t top_k = 10;
  FlagParser flags("wot_cli derive",
                   "Derive the web of trust and export each user's top-k "
                   "trustees");
  flags.AddString("data", &data, "dataset directory or .wotb file");
  flags.AddString("out", &out, "output CSV (source,target,degree)");
  flags.AddInt64("top_k", &top_k, "trustees to keep per user");
  WOT_RETURN_IF_ERROR_CLI(flags.Parse(argc, argv));
  if (top_k <= 0) {
    return Fail(Status::InvalidArgument("--top_k must be positive"));
  }
  Result<Dataset> dataset = LoadAny(data);
  if (!dataset.ok()) return Fail(dataset.status());

  Result<TrustPipeline> pipeline = TrustPipeline::Run(dataset.ValueOrDie());
  if (!pipeline.ok()) return Fail(pipeline.status());
  TrustDeriver deriver = pipeline.ValueOrDie().MakeDeriver();
  deriver.BuildPostings();

  std::vector<CsvRow> rows = {{"source", "target", "degree_of_trust"}};
  const Dataset& ds = dataset.ValueOrDie();
  for (size_t u = 0; u < ds.num_users(); ++u) {
    for (const auto& scored :
         deriver.DeriveRowTopK(u, static_cast<size_t>(top_k))) {
      rows.push_back({ds.user(UserId(static_cast<uint32_t>(u))).name,
                      ds.user(UserId(scored.user)).name,
                      FormatDouble(scored.score, 6)});
    }
  }
  Status s = WriteCsvFile(out, rows);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %zu derived trust edges to %s\n", rows.size() - 1,
              out.c_str());
  return 0;
}

int CmdValidate(int argc, char** argv) {
  std::string data;
  FlagParser flags("wot_cli validate",
                   "Validate the derived web against the dataset's "
                   "explicit trust statements (Table-4 protocol)");
  flags.AddString("data", &data, "dataset directory or .wotb file");
  WOT_RETURN_IF_ERROR_CLI(flags.Parse(argc, argv));
  Result<Dataset> dataset = LoadAny(data);
  if (!dataset.ok()) return Fail(dataset.status());

  Result<TrustPipeline> pipeline = TrustPipeline::Run(dataset.ValueOrDie());
  if (!pipeline.ok()) return Fail(pipeline.status());
  Result<ValidationReport> report =
      ValidateDerivedTrust(pipeline.ValueOrDie());
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report.ValueOrDie().ToString().c_str());

  TrustDeriver deriver = pipeline.ValueOrDie().MakeDeriver();
  Result<RocReport> roc = RocOfDerivedTrust(
      deriver, pipeline.ValueOrDie().direct_connections(),
      pipeline.ValueOrDie().explicit_trust());
  if (roc.ok()) {
    std::printf("\nROC of T-hat over R: %s\n",
                roc.ValueOrDie().ToString().c_str());
  }
  return 0;
}

// Calls one API method through \p client and unwraps the three failure
// layers (transport, ApiStatus, payload type) into one Result.
template <typename ResultT>
Result<ResultT> CallApi(api::ApiClient* client,
                        api::RequestPayload payload) {
  api::Request request;
  request.payload = std::move(payload);
  Result<api::Response> response = client->Call(request);
  if (!response.ok()) return response.status();
  const api::Response& reply = response.ValueOrDie();
  if (!reply.status.ok()) return api::ToStatus(reply.status);
  const ResultT* typed = std::get_if<ResultT>(&reply.payload);
  if (typed == nullptr) {
    return Status::Internal("unexpected response payload for method");
  }
  return *typed;
}

int CmdQuery(int argc, char** argv) {
  std::string data;
  std::string connect;
  std::string source;
  std::string target;
  std::string protocol = "ndjson";
  int64_t top_k = 10;
  int64_t shards = 1;
  bool explain = false;
  FlagParser flags("wot_cli query",
                   "Serve trust queries through the versioned API: top-k "
                   "trustees of --source, or the derived degree (and, with "
                   "--explain, its per-category breakdown) for --source "
                   "--target. With --connect, queries go to a resident "
                   "wot_served process instead of booting a service");
  flags.AddString("data", &data,
                  "dataset directory or .wotb file (in-process mode)");
  flags.AddString("connect", &connect,
                  "resident wot_served server: a unix socket path "
                  "(--socket mode) or a TCP host:port (--listen mode; "
                  "detected by ':' with no '/')");
  flags.AddString("source", &source, "truster: user name or index");
  flags.AddString("target", &target,
                  "trustee: user name or index (omit for top-k mode)");
  flags.AddInt64("top_k", &top_k, "trustees to list in top-k mode");
  flags.AddInt64("shards", &shards,
                 "shard the in-process service across this many "
                 "TrustServices behind a ShardRouter (1 = unsharded)");
  flags.AddBool("explain", &explain,
                "print the per-category contribution breakdown");
  flags.AddString("protocol", &protocol,
                  "wire protocol: 'ndjson' (v1 lines) or 'binary' (v2 "
                  "frames). With --connect the socket speaks the chosen "
                  "framing; in-process, binary round-trips every call "
                  "through the v2 codec");
  WOT_RETURN_IF_ERROR_CLI(flags.Parse(argc, argv));
  Result<api::WireProtocol> wire = api::WireProtocolFromName(protocol);
  if (!wire.ok()) {
    return Fail(Status::InvalidArgument(wire.status().ToString() + "\n" +
                                        flags.Usage()));
  }
  if (source.empty()) {
    return Fail(Status::InvalidArgument("--source is required\n" +
                                        flags.Usage()));
  }
  if (top_k <= 0) {
    return Fail(Status::InvalidArgument("--top_k must be positive"));
  }
  if (shards <= 0) {
    return Fail(Status::InvalidArgument("--shards must be positive"));
  }
  if (!connect.empty() && !data.empty()) {
    return Fail(Status::InvalidArgument(
        "--connect and --data are mutually exclusive"));
  }
  if (!connect.empty() && shards != 1) {
    return Fail(Status::InvalidArgument(
        "--shards applies to the in-process service; the resident "
        "server picks its own sharding"));
  }

  // Pick the transport; everything after this line is transport-agnostic.
  std::unique_ptr<TrustService> service;
  std::unique_ptr<api::Frontend> frontend;
  std::unique_ptr<api::ApiClient> client;
  if (!connect.empty()) {
    // A ':' with no '/' reads as TCP host:port; anything else is a unix
    // socket path (paths with directories always contain '/').
    bool tcp = connect.find(':') != std::string::npos &&
               connect.find('/') == std::string::npos;
    Result<std::unique_ptr<api::SocketClient>> socket =
        tcp ? api::SocketClient::ConnectTcp(connect, wire.ValueOrDie())
            : api::SocketClient::Connect(connect, wire.ValueOrDie());
    if (!socket.ok()) return Fail(socket.status());
    client = std::move(socket).ValueOrDie();
  } else {
    Result<Dataset> dataset = LoadAny(data);
    if (!dataset.ok()) return Fail(dataset.status());
    if (shards == 1) {
      Result<std::unique_ptr<TrustService>> booted =
          TrustService::Create(std::move(dataset).ValueOrDie());
      if (!booted.ok()) return Fail(booted.status());
      service = std::move(booted).ValueOrDie();
      frontend = std::make_unique<api::ServiceFrontend>(service.get());
    } else {
      Result<std::unique_ptr<api::ShardRouter>> booted =
          api::ShardRouter::Create(std::move(dataset).ValueOrDie(),
                                   static_cast<size_t>(shards));
      if (!booted.ok()) return Fail(booted.status());
      frontend = std::move(booted).ValueOrDie();
    }
    // NDJSON loopback dispatches structs directly (the historical
    // behavior); binary proves the v2 codec end to end by round-tripping
    // every call through it.
    const bool through_codec =
        wire.ValueOrDie() == api::WireProtocol::kBinary;
    client = std::make_unique<api::LoopbackClient>(
        frontend.get(), through_codec, wire.ValueOrDie());
  }

  Result<api::StatsResult> stats =
      CallApi<api::StatsResult>(client.get(), api::StatsRequest{});
  if (!stats.ok()) return Fail(stats.status());
  std::printf("serving snapshot v%llu: %lld users, %lld categories, %lld "
              "ratings\n",
              static_cast<unsigned long long>(
                  stats.ValueOrDie().snapshot_version),
              static_cast<long long>(stats.ValueOrDie().users),
              static_cast<long long>(stats.ValueOrDie().categories),
              static_cast<long long>(stats.ValueOrDie().ratings));

  if (target.empty()) {
    Result<api::TopKResult> topk = CallApi<api::TopKResult>(
        client.get(), api::TopKQuery{source, top_k});
    if (!topk.ok()) return Fail(topk.status());
    std::printf("top-%lld trustees of %s:\n",
                static_cast<long long>(top_k),
                topk.ValueOrDie().source_name.c_str());
    for (const api::ScoredUserEntry& entry :
         topk.ValueOrDie().trustees) {
      std::printf("  %-24s %.6f\n", entry.name.c_str(), entry.score);
    }
    return 0;
  }

  if (!explain) {
    Result<api::TrustResult> trust = CallApi<api::TrustResult>(
        client.get(), api::TrustQuery{source, target});
    if (!trust.ok()) return Fail(trust.status());
    std::printf("T-hat(%s -> %s) = %.6f\n",
                trust.ValueOrDie().source_name.c_str(),
                trust.ValueOrDie().target_name.c_str(),
                trust.ValueOrDie().trust);
    return 0;
  }

  Result<api::ExplainResult> explained = CallApi<api::ExplainResult>(
      client.get(), api::ExplainQuery{source, target});
  if (!explained.ok()) return Fail(explained.status());
  const api::ExplainResult& breakdown = explained.ValueOrDie();
  std::printf("T-hat(%s -> %s) = %.6f\n", breakdown.source_name.c_str(),
              breakdown.target_name.c_str(), breakdown.trust);
  std::printf("  affinity sum: %.6f\n", breakdown.affinity_sum);
  for (const api::ExplainTermResult& term : breakdown.terms) {
    std::printf("  %-24s A=%.4f  E=%.4f  contributes %.6f\n",
                term.category_name.c_str(), term.affiliation,
                term.expertise, term.contribution);
  }
  if (breakdown.terms.empty()) {
    std::printf("  (no active categories: %s has no rating/review "
                "history)\n",
                breakdown.source_name.c_str());
  }
  return 0;
}

int CmdMetrics(int argc, char** argv) {
  std::string data;
  std::string connect;
  std::string protocol = "ndjson";
  int64_t shards = 1;
  FlagParser flags(
      "wot_cli metrics",
      "Scrape the telemetry registry through the versioned API and "
      "render it as tables: counters, gauges, and latency-histogram "
      "quantiles (nanoseconds for *_ns metrics; see "
      "docs/observability.md for the catalog). With --connect the "
      "scrape hits a resident wot_served process; otherwise an "
      "in-process service is booted (its counters show just this "
      "invocation's traffic)");
  flags.AddString("data", &data,
                  "dataset directory or .wotb file (in-process mode)");
  flags.AddString("connect", &connect,
                  "resident wot_served server: a unix socket path or a "
                  "TCP host:port (detected by ':' with no '/')");
  flags.AddInt64("shards", &shards,
                 "shard the in-process service across this many "
                 "TrustServices behind a ShardRouter (1 = unsharded)");
  flags.AddString("protocol", &protocol,
                  "wire protocol: 'ndjson' (v1 lines) or 'binary' (v2 "
                  "frames)");
  WOT_RETURN_IF_ERROR_CLI(flags.Parse(argc, argv));
  Result<api::WireProtocol> wire = api::WireProtocolFromName(protocol);
  if (!wire.ok()) {
    return Fail(Status::InvalidArgument(wire.status().ToString() + "\n" +
                                        flags.Usage()));
  }
  if (shards <= 0) {
    return Fail(Status::InvalidArgument("--shards must be positive"));
  }
  if (!connect.empty() && !data.empty()) {
    return Fail(Status::InvalidArgument(
        "--connect and --data are mutually exclusive"));
  }
  if (connect.empty() && data.empty()) {
    return Fail(Status::InvalidArgument(
        "need --connect (resident server) or --data (in-process)\n" +
        flags.Usage()));
  }
  if (!connect.empty() && shards != 1) {
    return Fail(Status::InvalidArgument(
        "--shards applies to the in-process service; the resident "
        "server picks its own sharding"));
  }

  std::unique_ptr<TrustService> service;
  std::unique_ptr<api::Frontend> frontend;
  std::unique_ptr<api::ApiClient> client;
  if (!connect.empty()) {
    bool tcp = connect.find(':') != std::string::npos &&
               connect.find('/') == std::string::npos;
    Result<std::unique_ptr<api::SocketClient>> socket =
        tcp ? api::SocketClient::ConnectTcp(connect, wire.ValueOrDie())
            : api::SocketClient::Connect(connect, wire.ValueOrDie());
    if (!socket.ok()) return Fail(socket.status());
    client = std::move(socket).ValueOrDie();
  } else {
    Result<Dataset> dataset = LoadAny(data);
    if (!dataset.ok()) return Fail(dataset.status());
    if (shards == 1) {
      Result<std::unique_ptr<TrustService>> booted =
          TrustService::Create(std::move(dataset).ValueOrDie());
      if (!booted.ok()) return Fail(booted.status());
      service = std::move(booted).ValueOrDie();
      frontend = std::make_unique<api::ServiceFrontend>(service.get());
    } else {
      Result<std::unique_ptr<api::ShardRouter>> booted =
          api::ShardRouter::Create(std::move(dataset).ValueOrDie(),
                                   static_cast<size_t>(shards));
      if (!booted.ok()) return Fail(booted.status());
      frontend = std::move(booted).ValueOrDie();
    }
    const bool through_codec =
        wire.ValueOrDie() == api::WireProtocol::kBinary;
    client = std::make_unique<api::LoopbackClient>(
        frontend.get(), through_codec, wire.ValueOrDie());
  }

  Result<api::MetricsResult> scraped =
      CallApi<api::MetricsResult>(client.get(), api::MetricsRequest{});
  if (!scraped.ok()) return Fail(scraped.status());
  const api::MetricsResult& metrics = scraped.ValueOrDie();
  std::printf("telemetry snapshot (epoch %llu)\n\n",
              static_cast<unsigned long long>(metrics.snapshot_version));

  TablePrinter counters({"counter", "value"});
  for (const api::MetricValue& counter : metrics.counters) {
    counters.AddRow({counter.name, std::to_string(counter.value)});
  }
  counters.Print(std::cout);
  std::printf("\n");

  TablePrinter gauges({"gauge", "value"});
  for (const api::MetricValue& gauge : metrics.gauges) {
    gauges.AddRow({gauge.name, std::to_string(gauge.value)});
  }
  gauges.Print(std::cout);
  std::printf("\n");

  // Histogram values are raw samples — nanoseconds for *_ns metrics,
  // plain counts for the width/size histograms.
  TablePrinter histograms({"histogram", "count", "min", "p50", "p90",
                           "p99", "p99.9", "max"});
  for (const api::MetricHistogramValue& h : metrics.histograms) {
    histograms.AddRow({h.name, std::to_string(h.count),
                       std::to_string(h.min), FormatDouble(h.p50, 1),
                       FormatDouble(h.p90, 1), FormatDouble(h.p99, 1),
                       FormatDouble(h.p999, 1), std::to_string(h.max)});
  }
  histograms.Print(std::cout);
  return 0;
}

const char* ReplRoleName(int64_t role) {
  switch (role) {
    case static_cast<int64_t>(api::ReplRole::kPrimary):
      return "primary";
    case static_cast<int64_t>(api::ReplRole::kReplica):
      return "replica";
    case static_cast<int64_t>(api::ReplRole::kRouter):
      return "router";
  }
  return "unknown";
}

int PrintReplStatus(const api::ReplStatusResult& status) {
  std::printf("role: %s\n", ReplRoleName(status.role));
  std::printf("applied version: %llu\n",
              static_cast<unsigned long long>(status.applied_version));
  std::printf("source version:  %llu\n",
              static_cast<unsigned long long>(status.source_version));
  if (status.source_version >= status.applied_version) {
    std::printf("lag: %llu epochs\n",
                static_cast<unsigned long long>(status.source_version -
                                                status.applied_version));
  }
  std::printf("failovers: %lld\n",
              static_cast<long long>(status.failovers));
  if (!status.replicas.empty()) {
    std::printf("\n");
    TablePrinter replicas({"shard", "address", "applied", "healthy"});
    for (const api::ReplReplicaInfo& info : status.replicas) {
      replicas.AddRow({std::to_string(info.shard), info.address,
                       std::to_string(info.applied_version),
                       info.healthy != 0 ? "yes" : "NO"});
    }
    replicas.Print(std::cout);
  }
  return 0;
}

int CmdReplica(int argc, char** argv) {
  const char* usage =
      "usage: wot_cli replica status|promote --connect ADDR\n\n"
      "status   report the server's replication role, applied/source\n"
      "         versions, failover count, and (on a router) its\n"
      "         per-shard replica sets\n"
      "promote  promote a replica to primary: stop following, drain\n"
      "         the remaining WAL delta, start accepting writes and\n"
      "         serving repl_fetch to other followers\n";
  if (argc < 2 || (std::strcmp(argv[1], "status") != 0 &&
                   std::strcmp(argv[1], "promote") != 0)) {
    std::fprintf(stderr, "%s", usage);
    return 1;
  }
  const bool promote = std::strcmp(argv[1], "promote") == 0;
  std::string connect;
  std::string protocol = "ndjson";
  FlagParser flags(
      promote ? "wot_cli replica promote" : "wot_cli replica status",
      promote ? "Promote the connected replica to primary (quorum-gated "
                "failover: the operator — or an orchestrator — picks the "
                "replica with the highest applied version, sees `wot_cli "
                "replica status`)"
              : "Report the connected server's replication role and "
                "progress");
  flags.AddString("connect", &connect,
                  "the server: a unix socket path or a TCP host:port "
                  "(detected by ':' with no '/')");
  flags.AddString("protocol", &protocol,
                  "wire protocol: 'ndjson' (v1 lines) or 'binary' (v2 "
                  "frames)");
  WOT_RETURN_IF_ERROR_CLI(flags.Parse(argc - 1, argv + 1));
  Result<api::WireProtocol> wire = api::WireProtocolFromName(protocol);
  if (!wire.ok()) {
    return Fail(Status::InvalidArgument(wire.status().ToString() + "\n" +
                                        flags.Usage()));
  }
  if (connect.empty()) {
    return Fail(Status::InvalidArgument(
        "--connect is required (replication state lives in a resident "
        "server)\n" +
        flags.Usage()));
  }
  bool tcp = connect.find(':') != std::string::npos &&
             connect.find('/') == std::string::npos;
  Result<std::unique_ptr<api::SocketClient>> socket =
      tcp ? api::SocketClient::ConnectTcp(connect, wire.ValueOrDie())
          : api::SocketClient::Connect(connect, wire.ValueOrDie());
  if (!socket.ok()) return Fail(socket.status());
  std::unique_ptr<api::ApiClient> client = std::move(socket).ValueOrDie();
  Result<api::ReplStatusResult> status =
      promote ? CallApi<api::ReplStatusResult>(client.get(),
                                               api::ReplPromoteRequest{})
              : CallApi<api::ReplStatusResult>(client.get(),
                                               api::ReplStatusRequest{});
  if (!status.ok()) return Fail(status.status());
  if (promote) {
    std::printf("promoted.\n");
  }
  return PrintReplStatus(status.ValueOrDie());
}

// Dumps one storage directory's segments and WALs; returns how many
// files are corrupt. A torn WAL *tail* is recoverable by design (the
// server truncates it at boot) so it is reported but not counted.
int InspectStorageDir(const std::string& dir, const char* indent) {
  Result<storage::StorageFileSet> files = storage::ListStorageFiles(dir);
  if (!files.ok()) {
    std::fprintf(stderr, "error: %s\n", files.status().ToString().c_str());
    return 1;
  }
  const storage::StorageFileSet& set = files.ValueOrDie();
  int corrupt = 0;
  if (set.segments.empty() && set.wals.empty()) {
    std::printf("%s(no storage files)\n", indent);
  }
  for (const storage::StorageFile& segment : set.segments) {
    Result<storage::SegmentInfo> info =
        storage::ReadSegmentInfo(segment.path);
    if (!info.ok()) {
      std::printf("%ssegment v%llu: CORRUPT — %s\n", indent,
                  static_cast<unsigned long long>(segment.number),
                  info.status().message().c_str());
      ++corrupt;
      continue;
    }
    const storage::SegmentInfo& s = info.ValueOrDie();
    std::printf("%ssegment v%llu: ok, %llu bytes (%llu users, %llu "
                "categories, %llu reviews, %llu ratings)\n",
                indent, static_cast<unsigned long long>(s.snapshot_version),
                static_cast<unsigned long long>(s.file_bytes),
                static_cast<unsigned long long>(s.num_users),
                static_cast<unsigned long long>(s.num_categories),
                static_cast<unsigned long long>(s.num_reviews),
                static_cast<unsigned long long>(s.num_ratings));
  }
  for (const storage::StorageFile& wal : set.wals) {
    Result<storage::WalScanStats> scanned =
        storage::ScanWal(wal.path, /*repair=*/false, nullptr);
    if (!scanned.ok()) {
      std::printf("%swal epoch %llu: CORRUPT — %s\n", indent,
                  static_cast<unsigned long long>(wal.number),
                  scanned.status().message().c_str());
      ++corrupt;
      continue;
    }
    const storage::WalScanStats& s = scanned.ValueOrDie();
    std::printf("%swal epoch %llu: %llu records (%llu commits), %llu "
                "valid bytes%s\n",
                indent, static_cast<unsigned long long>(wal.number),
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.commit_records),
                static_cast<unsigned long long>(s.valid_bytes),
                s.truncated_bytes == 0 ? "" : " + torn tail (recoverable)");
    if (s.truncated_bytes > 0) {
      std::printf("%s  torn tail: %llu bytes past the last valid record "
                  "(the server truncates this at boot)\n",
                  indent,
                  static_cast<unsigned long long>(s.truncated_bytes));
    }
  }
  return corrupt;
}

int CmdStorage(int argc, char** argv) {
  const char* usage =
      "usage: wot_cli storage inspect DIR\n\n"
      "Dumps a --data_dir storage directory: every snapshot segment\n"
      "(version, size, entity counts; CRC-verified) and every WAL\n"
      "(record/commit counts, torn-tail diagnosis). Shard\n"
      "subdirectories are walked automatically. Exits nonzero when the\n"
      "directory is missing or any file is corrupt; a torn WAL tail\n"
      "alone is recoverable and exits 0.\n";
  if (argc < 3 || std::strcmp(argv[1], "inspect") != 0) {
    std::fprintf(stderr, "%s", usage);
    return 1;
  }
  const std::string dir = argv[2];
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "error: '%s' is not a directory\n", dir.c_str());
    return 1;
  }
  int corrupt = 0;
  Result<uint32_t> shards = storage::ReadShardMeta(dir);
  if (shards.ok() && shards.ValueOrDie() >= 2) {
    std::printf("%s: %u shards\n", dir.c_str(), shards.ValueOrDie());
    Result<uint64_t> epoch = storage::ReadRouterEpoch(dir);
    if (epoch.ok()) {
      std::printf("  router epoch %llu\n",
                  static_cast<unsigned long long>(epoch.ValueOrDie()));
    } else if (epoch.status().code() != StatusCode::kNotFound) {
      std::printf("  router epoch: CORRUPT — %s\n",
                  epoch.status().message().c_str());
      ++corrupt;
    }
    for (uint32_t s = 0; s < shards.ValueOrDie(); ++s) {
      const std::string shard_dir = dir + "/shard-" + std::to_string(s);
      std::printf("  shard-%u:\n", s);
      corrupt += InspectStorageDir(shard_dir, "    ");
    }
  } else {
    if (!shards.ok() &&
        shards.status().code() != StatusCode::kNotFound) {
      std::printf("%s: meta CORRUPT — %s\n", dir.c_str(),
                  shards.status().message().c_str());
      ++corrupt;
    } else {
      std::printf("%s:\n", dir.c_str());
    }
    corrupt += InspectStorageDir(dir, "  ");
  }
  if (corrupt > 0) {
    std::fprintf(stderr, "error: %d corrupt storage file(s)\n", corrupt);
    return 1;
  }
  return 0;
}

void PrintUsage() {
  std::printf(
      "wot_cli <command> [flags]\n\n"
      "commands:\n"
      "  generate   create a synthetic community dataset\n"
      "  stats      describe a dataset\n"
      "  convert    CSV directory <-> .wotb binary\n"
      "  derive     derive the web of trust, export top-k per user\n"
      "  validate   Table-4 validation against explicit trust\n"
      "  query      serve trust queries (top-k / pairwise / --explain)\n"
      "  metrics    scrape and tabulate a server's telemetry registry\n"
      "  replica    replication status / promote a replica to primary\n"
      "  storage    inspect a --data_dir durable storage directory\n\n"
      "run `wot_cli <command> --help` for the command's flags.\n");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  std::string command = argv[1];
  // Shift argv so FlagParser sees only the command's flags.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (command == "generate") return CmdGenerate(sub_argc, sub_argv);
  if (command == "stats") return CmdStats(sub_argc, sub_argv);
  if (command == "convert") return CmdConvert(sub_argc, sub_argv);
  if (command == "derive") return CmdDerive(sub_argc, sub_argv);
  if (command == "validate") return CmdValidate(sub_argc, sub_argv);
  if (command == "query") return CmdQuery(sub_argc, sub_argv);
  if (command == "metrics") return CmdMetrics(sub_argc, sub_argv);
  if (command == "replica") return CmdReplica(sub_argc, sub_argv);
  if (command == "storage") return CmdStorage(sub_argc, sub_argv);
  if (command == "--help" || command == "-h" || command == "help") {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
  PrintUsage();
  return 1;
}

}  // namespace
}  // namespace wot

int main(int argc, char** argv) { return wot::Main(argc, argv); }
