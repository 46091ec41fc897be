// wot_bench — the end-to-end serving benchmark (bench/e2e/README.md).
//
//   wot_bench run       --workload NAME --seed N --seconds S --out DIR
//   wot_bench trace     --workload NAME --seed N --seconds S --out DIR
//   wot_bench calibrate --workload NAME --seed N --out DIR
//
// `run` drives a real wot_served (built beside this binary) over unix
// sockets, checks every answer, and prints the end-to-end metrics. `trace`
// serves the same workload once more for the server's own counters, then
// replays it in process with spans around each module's public functions
// and prints the per-layer metrics. `calibrate` runs the read-rate ladder
// that fixed each workload's nominal rate. The last line of run/trace
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Everything the run produced —
// server logs, the full result, spans.json — stays under --out.
#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "loadgen.h"
#include "trace.h"
#include "workload.h"
#include "wot/io/binary_format.h"
#include "wot/io/json_writer.h"
#include "wot/util/flags.h"

namespace wot {
namespace e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, as BENCHMARK.json lists them. Every workload
// reports every one. The read tail is the 90th percentile: on a shared
// 4-core host the 99th is set by millisecond scheduler stalls, which
// move it several-fold between identical runs.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"read_p50_us", "us"},
    {"read_p90_us", "us"},   {"ingest_p50_us", "us"},
    {"commit_p50_ms", "ms"}, {"recover_s", "s"},
    {"rss_peak_mb", "MiB"},
};

// The per-layer metrics of the traced run, as BENCHMARK.json lists them.
constexpr MetricDef kPerLayer[] = {
    {"server.queue_wait_us.mean", "us"},
    {"server.queue_wait_us.p99", "us"},
    {"server.epoll_wakeups_per_request", "ratio"},
    {"server.rtt_closed_us.p50", "us"},
    {"server.transport_residual_us", "us"},
    {"api.encode_request_ns.p50", "ns"},
    {"api.decode_request_ns.p50", "ns"},
    {"api.encode_response_ns.p50", "ns"},
    {"api.decode_response_ns.p50", "ns"},
    {"api.dispatch_frame_ns.p50", "ns"},
    {"api.dispatch_frame_ns.p99", "ns"},
    {"api.dispatch_ns.p50", "ns"},
    {"api.envelope_ns.p50", "ns"},
    {"api.served_latency_us.mean", "us"},
    {"router.overhead_ns.p50", "ns"},
    {"router.read_serial_ns.p50", "ns"},
    {"router.read_pooled_ns.p50", "ns"},
    {"router.commit_serial_ms.p50", "ms"},
    {"router.commit_pooled_ms.p50", "ms"},
    {"service.boot_ms", "ms"},
    {"service.query_ns.p50", "ns"},
    {"service.query_ns.p99", "ns"},
    {"service.ingest_us.p50", "us"},
    {"service.commit_ms.p50", "ms"},
    {"service.commit_update_ms.mean", "ms"},
    {"service.commit_affiliation_ms.mean", "ms"},
    {"service.commit_postings_ms.mean", "ms"},
    {"service.commit_publish_ms.mean", "ms"},
    {"service.categories_recomputed", "count"},
    {"service.affiliation_rows_recomputed", "count"},
    {"service.postings_rebuilt", "count"},
    {"service.affiliation_rows_per_dirty_user", "ratio"},
    {"storage.boot_fresh_ms", "ms"},
    {"storage.boot_recovered_ms", "ms"},
    {"storage.replayed_records", "count"},
    {"storage.wal_append_us.p50", "us"},
    {"storage.wal_append_us.p90", "us"},
    {"storage.wal_fsync_us.p50", "us"},
    {"storage.log_commit_ms", "ms"},
    {"storage.segment_write_ms.p50", "ms"},
    {"storage.wal_bytes_per_ingest", "B"},
    {"storage.segment_mb", "MiB"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.outstanding_max", "count"},
    {"trace.span_overhead_ns", "ns"},
};

constexpr char kSocket[] = "wot.sock";
constexpr char kDataDir[] = "data";
constexpr int kBoots = 3;
constexpr int kRestarts = 5;
constexpr double kBootTimeoutS = 120;
// Answers at no more than this many epochs are replayed and compared bit
// for bit (every ceil(E / kCheckedEpochs)-th epoch, the first and the
// last), so the oracle's commits stay a bounded share of a run.
constexpr int64_t kCheckedEpochs = 24;
constexpr double kMiB = 1024.0 * 1024.0;
// Every run serves the same canonical community (ROADMAP: seed 42 at the
// workload's scale); --seed varies the request streams.
constexpr uint64_t kDatasetSeed = 42;

struct Options {
  std::string command;
  WorkloadSpec spec;
  uint64_t seed = 42;
  int64_t seconds = 10;
  bool smoke = false;
  std::string exe_dir;
};

void OnWatchdog(int) {
  // Children die with us (PR_SET_PDEATHSIG); never hang a caller.
  static const char kMessage[] = "wot_bench: watchdog expired\n";
  (void)!::write(STDERR_FILENO, kMessage, sizeof(kMessage) - 1);
  ::_exit(3);
}

// The workload's canonical community: generated once by wot_cli into a
// cache beside the binaries, then loaded.
struct Community {
  std::string path;
  Dataset dataset;
};

Result<Community> LoadCommunity(const Options& options) {
  const std::string dir = options.exe_dir + "/datasets";
  std::filesystem::create_directories(dir);
  const std::string users = std::to_string(options.spec.users);
  const std::string seed = std::to_string(kDatasetSeed);
  const std::string path = dir + "/users" + users + "-seed" + seed + ".wotb";
  if (!std::filesystem::exists(path)) {
    // Written under a private name and renamed, so a concurrent run never
    // loads a partial file.
    const std::string partial = path + ".partial" + std::to_string(::getpid());
    WOT_ASSIGN_OR_RETURN(
        std::unique_ptr<ServedProcess> generate,
        ServedProcess::Spawn(options.exe_dir + "/wot_cli",
                             {"generate", "--users", users, "--seed", seed,
                              "--binary", partial},
                             dir + "/generate.log"));
    if (generate->Wait() != 0) {
      return Status::Internal("wot_cli generate failed (see " + dir +
                              "/generate.log)");
    }
    std::filesystem::rename(partial, path);
  }
  WOT_ASSIGN_OR_RETURN(Dataset dataset, LoadDatasetBinary(path));
  return Community{path, std::move(dataset)};
}

std::vector<std::string> ServedArgs(const WorkloadSpec& spec,
                                    const std::string& dataset) {
  std::vector<std::string> args = {
      "--data",     dataset,
      "--socket",   kSocket,
      "--threads",  "2",
      "--shards",   std::to_string(spec.shards),
      "--protocol", api::WireProtocolName(spec.wire)};
  if (spec.durable) {
    args.insert(args.end(), {"--data_dir", kDataDir, "--fsync", "batch"});
  }
  return args;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// The median over windows of each window's q-quantile: a slow second on a
// shared host moves one window, not the result.
double WindowedPercentile(const std::vector<std::vector<double>>& windows,
                          double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(Percentile(window, q));
  }
  return Median(std::move(per_window));
}

// A failed request misses every latency limit: it counts as at least the
// one-second timeout.
double LatencyOrTimeout(const OpRecord& record) {
  const double latency = static_cast<double>(record.latency_ns());
  return record.failed() ? std::max(latency, 1e9) : latency;
}

const api::MetricHistogramValue* FindHistogram(const api::MetricsResult& m,
                                               std::string_view name) {
  for (const api::MetricHistogramValue& h : m.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double CounterValue(const api::MetricsResult& m, std::string_view name) {
  for (const api::MetricValue& c : m.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0;
}

// Mean of a histogram over the interval between two scrapes.
double IntervalMean(const api::MetricsResult& before,
                    const api::MetricsResult& after,
                    const std::vector<std::string>& names) {
  double sum = 0, count = 0;
  for (const std::string& name : names) {
    const api::MetricHistogramValue* a = FindHistogram(after, name);
    const api::MetricHistogramValue* b = FindHistogram(before, name);
    sum += static_cast<double>((a ? a->sum : 0) - (b ? b->sum : 0));
    count += static_cast<double>((a ? a->count : 0) - (b ? b->count : 0));
  }
  return count > 0 ? sum / count : 0;
}

// Waits until the newest published snapshot's segment is on disk (the
// server writes segments in the background).
Status AwaitSegment(api::SocketClient* client) {
  const int64_t deadline = NowNs() + 30'000'000'000;
  while (NowNs() < deadline) {
    WOT_ASSIGN_OR_RETURN(
        api::StatsResult stats,
        CallFor<api::StatsResult>(client, api::StatsRequest{}));
    if (stats.segment_epoch >= static_cast<int64_t>(stats.snapshot_version)) {
      return Status::OK();
    }
    ::usleep(2000);
  }
  return Status::Internal("the newest segment was not written within 30 s");
}

// Replays the acked writes through an in-process twin of the served
// topology and compares reads bit for bit at the checked epochs. A
// sharded read may carry the epoch before the one whose data it saw (the
// router reads its epoch before the shard snapshots), so a mismatch there
// is retried one epoch later. Returns the number of reads compared.
Result<int64_t> VerifyAnswers(const WorkloadSpec& spec, const Dataset& dataset,
                              uint64_t first_epoch,
                              const std::vector<size_t>& writes,
                              OpRecords* records) {
  std::map<uint64_t, std::vector<size_t>> reads_by_epoch;
  for (size_t i = 0; i < records->size(); ++i) {
    const OpRecord& record = (*records)[i];
    if (!IsRead(record.op.kind) || !record.ok || record.wrong) continue;
    if (record.version < first_epoch) {
      (*records)[i].wrong = true;  // older than the boot snapshot
    } else {
      reads_by_epoch[record.version].push_back(i);
    }
  }
  if (reads_by_epoch.empty()) return 0;
  const uint64_t last_epoch = reads_by_epoch.rbegin()->first;
  const uint64_t stride = std::max<uint64_t>(
      1, (last_epoch - first_epoch + kCheckedEpochs) / kCheckedEpochs);
  WOT_ASSIGN_OR_RETURN(std::unique_ptr<Oracle> oracle,
                       Oracle::Boot(spec, dataset));
  const bool sharded = spec.shards > 1;

  size_t next_write = 0;
  uint64_t epoch = first_epoch;
  // An unanswered write may or may not have been applied: past it, the
  // served state cannot be reproduced, so nothing more is judged.
  bool unknowable = false;
  // Replays acked writes until the oracle holds the state served at
  // \p target, with one oracle commit; false when no replay reaches it.
  auto advance_to = [&](uint64_t target) -> bool {
    bool staged = false;
    while (epoch < target && next_write < writes.size()) {
      OpRecord& write = (*records)[writes[next_write++]];
      if (!write.answered) {
        unknowable = true;
        return false;
      }
      if (!write.ok) continue;  // rejected, so never applied
      if (write.op.kind == OpKind::kCommit) {
        if (write.assigned == 1) ++epoch;
        continue;
      }
      const api::Response response = oracle->Dispatch(write.op);
      staged = true;
      if (write.op.kind == OpKind::kIngestUser &&
          std::get<api::IngestResult>(response.payload).assigned_id !=
              write.assigned) {
        write.wrong = true;
      }
    }
    if (staged) {
      Op commit;
      commit.kind = OpKind::kCommit;
      oracle->Dispatch(commit);
    }
    return epoch == target;
  };
  std::vector<size_t> retry;
  auto settle_retries = [&] {
    for (size_t id : retry) {
      OpRecord& record = (*records)[id];
      if (AnswerDigest(oracle->Dispatch(record.op)) != record.digest) {
        record.wrong = true;
      }
    }
    retry.clear();
  };

  int64_t compared = 0;
  auto it = reads_by_epoch.begin();
  for (; it != reads_by_epoch.end(); ++it) {
    const auto& [e, ids] = *it;
    const bool checked = (e - first_epoch) % stride == 0 || e == last_epoch;
    if (!checked && retry.empty()) continue;
    if (!advance_to(e)) break;
    settle_retries();
    if (checked) {
      for (size_t id : ids) {
        ++compared;
        OpRecord& record = (*records)[id];
        if (AnswerDigest(oracle->Dispatch(record.op)) == record.digest) {
          continue;
        }
        if (sharded) {
          retry.push_back(id);
        } else {
          record.wrong = true;
        }
      }
    }
    const auto next = std::next(it);
    if (!retry.empty() &&
        (next == reads_by_epoch.end() || next->first != e + 1)) {
      // No reads of its own at e + 1: visit it for the retries alone.
      if (!advance_to(e + 1)) {
        it = next;
        break;
      }
      settle_retries();
    }
  }
  // Answers at an epoch no replay of the acked writes reaches are wrong.
  if (!unknowable) {
    for (size_t id : retry) (*records)[id].wrong = true;
    for (; it != reads_by_epoch.end(); ++it) {
      for (size_t id : it->second) (*records)[id].wrong = true;
    }
  }
  return compared;
}

// Acked ingest counts, split at the last acked commit.
struct AckedCounts {
  int64_t users_committed = 0;
  int64_t ratings_committed = 0;
  int64_t users = 0;
  int64_t ratings = 0;
};

AckedCounts CountAcked(const OpRecords& records,
                       const std::vector<size_t>& writes) {
  AckedCounts counts;
  for (size_t id : writes) {
    const OpRecord& write = records[id];
    if (!write.ok) continue;
    if (write.op.kind == OpKind::kIngestUser) ++counts.users;
    if (write.op.kind == OpKind::kIngestRating) ++counts.ratings;
    if (write.op.kind == OpKind::kCommit) {
      counts.users_committed = counts.users;
      counts.ratings_committed = counts.ratings;
    }
  }
  return counts;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "wot_bench: %s\n", status.ToString().c_str());
  return 2;
}

// Prints the contract line and writes the full result next to it.
Status Report(const Options& options, bool correct, int64_t attempted,
              int64_t failed, const std::map<std::string, double>& values,
              const std::map<std::string, double>& extras,
              const std::map<std::string, std::vector<double>>& series) {
  JsonWriter line;
  line.BeginObject().Key("correct").Bool(correct).Key("attempted")
      .Int(attempted).Key("failed").Int(failed).Key("metrics").BeginObject();
  const bool trace = options.command == "trace";
  auto emit = [&](const MetricDef& def) -> Status {
    auto it = values.find(def.name);
    if (it == values.end()) {
      return Status::Internal(std::string("metric not measured: ") +
                              def.name);
    }
    line.Key(def.name).BeginObject().Key("value").Double(it->second)
        .Key("unit").String(def.unit).EndObject();
    return Status::OK();
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) WOT_RETURN_IF_ERROR(emit(def));
  } else {
    for (const MetricDef& def : kEndToEnd) WOT_RETURN_IF_ERROR(emit(def));
  }
  line.EndObject().EndObject();

  JsonWriter full;
  full.BeginObject().Key("workload").String(options.spec.name)
      .Key("seed").UInt(options.seed).Key("seconds").Int(options.seconds)
      .Key("command").String(options.command).Key("result").BeginObject();
  for (const auto& [name, value] : values) full.Key(name).Double(value);
  for (const auto& [name, value] : extras) full.Key(name).Double(value);
  full.EndObject().Key("series").BeginObject();
  for (const auto& [name, samples] : series) {
    full.Key(name).BeginArray();
    for (double sample : samples) full.Double(sample);
    full.EndArray();
  }
  full.EndObject().EndObject();
  std::ofstream("result.json") << full.str() << "\n";

  for (const auto& [name, value] : extras) {
    std::printf("  %-34s %.6g\n", name.c_str(), value);
  }
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return Status::OK();
}

int RunOrTrace(const Options& options) {
  const WorkloadSpec& spec = options.spec;
  const bool trace = options.command == "trace";

  Result<Community> community = LoadCommunity(options);
  if (!community.ok()) return Fail(community.status());
  const Dataset& dataset = community.ValueOrDie().dataset;
  const std::string served_exe = options.exe_dir + "/wot_served";
  const std::vector<std::string> args =
      ServedArgs(spec, community.ValueOrDie().path);

  std::unique_ptr<ServedProcess> server;
  std::unique_ptr<api::SocketClient> control;
  // Spawns the server and waits for its first OK reply; the seconds taken.
  auto boot = [&](api::StatsResult* stats) -> Result<double> {
    const int64_t start = NowNs();
    WOT_ASSIGN_OR_RETURN(
        server, ServedProcess::Spawn(served_exe, args, "served.log"));
    WOT_ASSIGN_OR_RETURN(control, WaitReady(server.get(), kSocket, spec.wire,
                                            kBootTimeoutS, stats));
    return Seconds(NowNs() - start);
  };

  // Set-up, on a fresh data directory each time; the last boot serves the
  // run.
  std::vector<double> setup_s;
  api::StatsResult base;
  for (int i = 0; i < (trace ? 1 : kBoots); ++i) {
    control.reset();
    server.reset();
    std::filesystem::remove_all(kDataDir);
    Result<double> took = boot(&base);
    if (!took.ok()) return Fail(took.status());
    setup_s.push_back(took.ValueOrDie());
  }
  const uint64_t first_epoch = base.snapshot_version;

  // The open-loop run.
  RequestGen gen(spec, dataset, options.seed);
  OpRecords records;
  std::vector<size_t> writes;
  api::MetricsResult scrape_before, scrape_after;
  Status scraped = Status::OK();
  int64_t measure_start = 0, measure_end = 0, outstanding_max = 0;
  uint64_t acked_epoch = 0;
  {
    Traffic traffic(spec, &gen, &records, &writes);
    Status connected = traffic.Connect(kSocket);
    if (!connected.ok()) return Fail(connected);
    Traffic::Plan plan;
    plan.warmup_s = spec.warmup_seconds;
    plan.measure_s = static_cast<double>(options.seconds);
    plan.cycles = spec.cycles_per_second * options.seconds;
    auto scrape_into = [&](api::MetricsResult* out) {
      Result<api::MetricsResult> scrape =
          CallFor<api::MetricsResult>(control.get(), api::MetricsRequest{});
      if (scrape.ok()) {
        *out = std::move(scrape).ValueOrDie();
      } else {
        scraped = scrape.status();
      }
    };
    if (trace) {
      plan.on_measure_start = [&] { scrape_into(&scrape_before); };
      plan.on_measure_end = [&] { scrape_into(&scrape_after); };
    }
    Status ran = traffic.Run(plan);
    if (!ran.ok()) return Fail(ran);
    if (!scraped.ok()) return Fail(scraped);
    measure_start = traffic.measure_start_ns();
    measure_end = traffic.measure_end_ns();
    outstanding_max = traffic.outstanding_max();
    acked_epoch = traffic.acked_epoch();
  }

  // Probes of the final state, then acked writes left uncommitted.
  const int probes = options.smoke ? 100 : 1000;
  for (int i = 0; i < probes; ++i) {
    CallRecorded(control.get(), gen.ProbeRead(), Phase::kControl,
                 acked_epoch, &records);
  }
  // Every SIGKILL lands with the newest commit's segment on disk and the
  // same number of acked, uncommitted ingests in the WAL tail, so each
  // recovery replays the same amount.
  auto crash = [&]() -> Status {
    if (spec.durable) WOT_RETURN_IF_ERROR(AwaitSegment(control.get()));
    for (const Op& op : gen.Pending(spec.pending_at_kill)) {
      writes.push_back(records.size());
      CallRecorded(control.get(), op, Phase::kControl, 0, &records);
    }
    control.reset();
    server->Stop(SIGKILL);
    server.reset();
    return Status::OK();
  };
  const double rss_peak_mb =
      static_cast<double>(server->PeakRssBytes()) / kMiB;
  Status crashed = crash();
  if (!crashed.ok()) return Fail(crashed);
  const double disk_mb =
      spec.durable ? static_cast<double>(DirBytes(kDataDir)) / kMiB : 0;

  // Recovery: restart after the SIGKILL until the first OK reply. A
  // durable server must count every acked ingest (committed ones at once,
  // the rest after one more commit) and answer like a cold boot of the
  // same history; an in-memory server comes back as its seed.
  std::vector<double> recover_s;
  int64_t restart_checks = 0, restart_failures = 0;
  for (int restart = 0; !trace && restart < kRestarts; ++restart) {
    const AckedCounts acked = CountAcked(records, writes);
    api::StatsResult stats;
    Result<double> took = boot(&stats);
    if (!took.ok()) return Fail(took.status());
    recover_s.push_back(took.ValueOrDie());
    const int64_t users = spec.durable ? acked.users_committed : 0;
    const int64_t ratings = spec.durable ? acked.ratings_committed : 0;
    ++restart_checks;
    if (stats.users != base.users + users ||
        stats.ratings != base.ratings + ratings) {
      ++restart_failures;
    }
    if (spec.durable) {
      Op commit;
      commit.kind = OpKind::kCommit;
      writes.push_back(records.size());
      CallRecorded(control.get(), commit, Phase::kControl, 0, &records);
      Result<api::StatsResult> after =
          CallFor<api::StatsResult>(control.get(), api::StatsRequest{});
      ++restart_checks;
      if (!after.ok() ||
          after.ValueOrDie().users != base.users + acked.users ||
          after.ValueOrDie().ratings != base.ratings + acked.ratings) {
        ++restart_failures;
      }
      if (restart == 0) {
        for (int i = 0; i < probes; ++i) {
          CallRecorded(control.get(), gen.ProbeRead(), Phase::kControl,
                       records[writes.back()].version, &records);
        }
      }
    }
    crashed = crash();
    if (!crashed.ok()) return Fail(crashed);
  }

  std::filesystem::remove_all(kDataDir);

  Result<int64_t> compared =
      VerifyAnswers(spec, dataset, first_epoch, writes, &records);
  if (!compared.ok()) return Fail(compared.status());

  // Summaries. Read latencies are also kept per one-second window of the
  // fixed phase (a partial last window is left out).
  const int64_t windows = std::max<int64_t>(
      1, (measure_end - measure_start) / 1'000'000'000);
  std::vector<std::vector<double>> read_windows(static_cast<size_t>(windows));
  std::vector<double> read_ns, late_ns, ingest_ns, commit_ns;
  int64_t failed = restart_failures;
  bool correct = restart_failures == 0;
  for (const OpRecord& record : records) {
    if (record.failed()) ++failed;
    if (record.wrong) correct = false;
    if (IsRead(record.op.kind)) {
      if (record.phase == Phase::kMeasure) {
        read_ns.push_back(LatencyOrTimeout(record));
        late_ns.push_back(static_cast<double>(record.sent_ns - record.due_ns));
        const int64_t window =
            (record.due_ns - measure_start) / 1'000'000'000;
        if (window < windows) {
          read_windows[static_cast<size_t>(window)].push_back(read_ns.back());
        }
      }
    } else if (record.phase != Phase::kControl) {
      (IsIngest(record.op.kind) ? ingest_ns : commit_ns)
          .push_back(LatencyOrTimeout(record));
    }
  }
  const int64_t attempted =
      static_cast<int64_t>(records.size()) + restart_checks;

  std::map<std::string, double> values;
  std::map<std::string, double> extras = {
      {"dataset.users", static_cast<double>(base.users)},
      {"dataset.reviews", static_cast<double>(base.reviews)},
      {"dataset.ratings", static_cast<double>(base.ratings)},
      {"samples.reads", static_cast<double>(read_ns.size())},
      {"samples.ingests", static_cast<double>(ingest_ns.size())},
      {"samples.commits", static_cast<double>(commit_ns.size())},
      {"samples.reads_compared", static_cast<double>(compared.ValueOrDie())},
      {"measure_s", Seconds(measure_end - measure_start)},
      {"read_qps_offered",
       static_cast<double>(read_ns.size()) /
           std::max(Seconds(measure_end - measure_start), 1e-9)},
      {"failed_frac", static_cast<double>(failed) /
                          static_cast<double>(std::max<int64_t>(attempted, 1))},
      {"loadgen.late_p99_us", Percentile(late_ns, 0.99) / 1e3},
      {"loadgen.outstanding_max", static_cast<double>(outstanding_max)},
      {"commit_p90_ms", Percentile(commit_ns, 0.9) / 1e6},
      {"read_p50_us.all", Median(read_ns) / 1e3},
      {"read_p99_us", WindowedPercentile(read_windows, 0.99) / 1e3},
      {"read_p99_us.all", Percentile(read_ns, 0.99) / 1e3},
      {"ingest_p99_us", Percentile(ingest_ns, 0.99) / 1e3},
  };
  if (spec.durable) extras["disk_mb"] = disk_mb;

  if (trace) {
    LayerMetrics layers;
    Status traced = TraceLayers(spec, dataset, options.seed, options.smoke,
                                ".", &layers);
    if (!traced.ok()) return Fail(traced);
    values.insert(layers.begin(), layers.end());
    values["server.queue_wait_us.mean"] =
        IntervalMean(scrape_before, scrape_after, {"server.queue_wait_ns"}) /
        1e3;
    const api::MetricHistogramValue* queue_wait =
        FindHistogram(scrape_after, "server.queue_wait_ns");
    values["server.queue_wait_us.p99"] =
        queue_wait != nullptr ? queue_wait->p99 / 1e3 : 0;
    const double dispatched =
        CounterValue(scrape_after, "server.requests_dispatched") -
        CounterValue(scrape_before, "server.requests_dispatched");
    values["server.epoll_wakeups_per_request"] =
        (CounterValue(scrape_after, "server.epoll_wakeups") -
         CounterValue(scrape_before, "server.epoll_wakeups")) /
        std::max(dispatched, 1.0);
    values["api.served_latency_us.mean"] =
        IntervalMean(scrape_before, scrape_after,
                     {"api.latency_ns.trust", "api.latency_ns.topk",
                      "api.latency_ns.explain"}) /
        1e3;
    values["loadgen.late_p99_us"] = extras["loadgen.late_p99_us"];
    values["loadgen.outstanding_max"] = extras["loadgen.outstanding_max"];
    // The closed-loop round trip next to the stages it is made of.
    extras["rtt.closed_us"] = values["server.rtt_closed_us.p50"];
    extras["rtt.stage_sum_us"] = values["server.rtt_closed_us.p50"] -
                                 values["server.transport_residual_us"];
    extras["rtt.residual_us"] = values["server.transport_residual_us"];
  } else {
    values["setup_s"] = Median(setup_s);
    values["read_p50_us"] = WindowedPercentile(read_windows, 0.5) / 1e3;
    values["read_p90_us"] = WindowedPercentile(read_windows, 0.9) / 1e3;
    values["ingest_p50_us"] = Median(ingest_ns) / 1e3;
    values["commit_p50_ms"] = Median(commit_ns) / 1e6;
    // The fastest restart: recovery is deterministic CPU and I/O work, so
    // slower restarts measure the host, not the code.
    values["recover_s"] =
        *std::min_element(recover_s.begin(), recover_s.end());
    values["rss_peak_mb"] = rss_peak_mb;
  }
  // Per-sample detail behind the summaries, for result.json.
  std::map<std::string, std::vector<double>> series = {
      {"setup_s", setup_s}, {"recover_s", recover_s}};
  for (const auto& [name, q] : {std::pair{"read_window_p50_us", 0.5},
                                std::pair{"read_window_p90_us", 0.9},
                                std::pair{"read_window_p99_us", 0.99}}) {
    for (const std::vector<double>& window : read_windows) {
      series[name].push_back(Percentile(window, q) / 1e3);
    }
  }
  Status reported =
      Report(options, correct, attempted, failed, values, extras, series);
  if (!reported.ok()) return Fail(reported);
  return correct ? 0 : 1;
}

// The read-rate ladder: 4 s steps rising x1.2 from the nominal rate until
// a step misses the read p90 limit or fails a request, then three
// bisection steps. Answers are status- and causality-checked only.
int Calibrate(const Options& options) {
  const WorkloadSpec& spec = options.spec;
  Result<Community> community = LoadCommunity(options);
  if (!community.ok()) return Fail(community.status());
  const Dataset& dataset = community.ValueOrDie().dataset;
  std::filesystem::remove_all(kDataDir);
  Result<std::unique_ptr<ServedProcess>> server = ServedProcess::Spawn(
      options.exe_dir + "/wot_served",
      ServedArgs(spec, community.ValueOrDie().path), "served.log");
  if (!server.ok()) return Fail(server.status());
  api::StatsResult stats;
  Result<std::unique_ptr<api::SocketClient>> ready =
      WaitReady(server.ValueOrDie().get(), kSocket, spec.wire, kBootTimeoutS,
                &stats);
  if (!ready.ok()) return Fail(ready.status());

  RequestGen gen(spec, dataset, options.seed);
  auto step = [&](double qps) -> Result<bool> {
    WorkloadSpec at = spec;
    at.read_qps = qps;
    OpRecords records;
    std::vector<size_t> writes;
    Traffic traffic(at, &gen, &records, &writes);
    WOT_RETURN_IF_ERROR(traffic.Connect(kSocket));
    Traffic::Plan plan;
    plan.warmup_s = 1;
    plan.measure_s = options.smoke ? 1 : 4;
    WOT_RETURN_IF_ERROR(traffic.Run(plan));
    std::vector<double> read_ns;
    bool any_failed = false;
    for (const OpRecord& record : records) {
      any_failed |= record.failed();
      if (IsRead(record.op.kind) && record.phase == Phase::kMeasure) {
        read_ns.push_back(LatencyOrTimeout(record));
      }
    }
    const double p90_us = Percentile(read_ns, 0.9) / 1e3;
    const bool pass = !any_failed && p90_us <= spec.slo_ms * 1e3;
    std::printf("  step %10.0f qps  read p90 %9.1f us  %s\n", qps, p90_us,
                pass ? "pass" : "FAIL");
    std::fflush(stdout);
    return pass;
  };
  double pass_qps = 0, fail_qps = 0;
  // One generator thread tops out well below 1M requests per second.
  for (double qps = spec.read_qps; fail_qps == 0 && qps < 1e6; qps *= 1.2) {
    Result<bool> pass = step(qps);
    if (!pass.ok()) return Fail(pass.status());
    (pass.ValueOrDie() ? pass_qps : fail_qps) = qps;
  }
  for (int i = 0; i < 3 && fail_qps > 0; ++i) {
    const double mid = (pass_qps + fail_qps) / 2;
    Result<bool> pass = step(mid);
    if (!pass.ok()) return Fail(pass.status());
    (pass.ValueOrDie() ? pass_qps : fail_qps) = mid;
  }
  JsonWriter json;
  json.BeginObject().Key("workload").String(spec.name)
      .Key("nominal_qps").Double(spec.read_qps)
      .Key("read_max_qps").Double(pass_qps)
      .Key("slo_ms").Double(spec.slo_ms)
      .Key("nominal_at_most_half").Bool(spec.read_qps <= pass_qps / 2)
      .EndObject();
  std::ofstream("calibrate.json") << json.str() << "\n";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  // Sleep until each scheduled send, not up to the default 50 us slack
  // past it.
  ::prctl(PR_SET_TIMERSLACK, 1);
  std::string workload;
  std::string out;
  int64_t seed = 42;
  Options options;
  FlagParser flags("wot_bench",
                   "End-to-end serving benchmark: wot_bench "
                   "run|trace|calibrate --workload NAME --seed N "
                   "--seconds S --out DIR");
  flags.AddString("workload", &workload,
                  "point_read | sharded_mixed | durable_ingest");
  flags.AddInt64("seed", &seed, "dataset and request-stream seed");
  flags.AddInt64("seconds", &options.seconds, "length of the fixed phase");
  flags.AddString("out", &out, "working directory for this run");
  flags.AddBool("smoke", &options.smoke,
                "500 users, 1 s phases (the ctest smoke)");
  Status parsed = flags.Parse(argc, argv);
  const WorkloadSpec* spec = FindWorkload(workload);
  if (!parsed.ok() || flags.positional().size() != 1 || spec == nullptr ||
      out.empty() || options.seconds < 1 || seed < 0) {
    std::fprintf(stderr, "%s\n%s\n", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  options.command = flags.positional()[0];
  options.seed = static_cast<uint64_t>(seed);
  options.spec = options.smoke ? SmokeVariant(*spec) : *spec;
  if (options.smoke) options.seconds = 1;
  std::error_code error;
  options.exe_dir =
      std::filesystem::canonical("/proc/self/exe", error).parent_path();
  std::filesystem::create_directories(out, error);
  if (error || ::chdir(out.c_str()) != 0) {
    std::fprintf(stderr, "wot_bench: cannot use --out %s\n", out.c_str());
    return 2;
  }
  if (options.command == "run" || options.command == "trace") {
    ::signal(SIGALRM, OnWatchdog);
    ::alarm(options.smoke ? 300 : 175);
    return RunOrTrace(options);
  }
  if (options.command == "calibrate") return Calibrate(options);
  std::fprintf(stderr, "unknown command '%s'\n%s\n", options.command.c_str(),
               flags.Usage().c_str());
  return 2;
}

}  // namespace
}  // namespace e2e
}  // namespace wot

int main(int argc, char** argv) { return wot::e2e::Main(argc, argv); }
