// Round-trip smoke of the resident server (label: integration).
//
// Spawns the real wot_served binary (path in $WOT_SERVED_BIN, wired up by
// ctest), streams a pipelined script of 1000+ NDJSON requests through its
// stdin, and byte-diffs every response line against an in-process
// ServiceFrontend over the identical synthetic dataset — proving the
// process boundary is transparent. Stdio serving runs on the
// ConnectionServer event loop, so the reference supplies the matching
// ConnectionContext (one stdio connection) and the server runs with
// --threads 1 — sequential dispatch keeps the requests_served counter
// inside stats responses deterministic under pipelining. The stats frame
// and the stderr log then prove all those requests shared ONE service
// boot (the whole point of a resident server vs. per-invocation wot_cli).
//
// A second section covers --socket mode through SocketClient.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "testing/child_process.h"
#include "wot/api/client.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/service/trust_service.h"
#include "wot/synth/generator.h"
#include "wot/util/string_util.h"

namespace wot {
namespace api {
namespace {

constexpr int64_t kUsers = 80;
constexpr int64_t kSeed = 123;

const char* ServedBinary() {
  const char* bin = std::getenv("WOT_SERVED_BIN");
  return (bin != nullptr && bin[0] != '\0') ? bin : nullptr;
}

// The same boot wot_served performs for --users/--seed.
Dataset ServedDataset() {
  SynthConfig config;
  config.num_users = static_cast<size_t>(kUsers);
  config.seed = static_cast<uint64_t>(kSeed);
  return GenerateCommunity(config).ValueOrDie().dataset;
}

// A deterministic pipelined script: >1000 queries spanning every method
// class, including requests that must produce structured errors.
std::vector<std::string> BuildScript(size_t num_users) {
  std::vector<std::string> lines;
  int64_t id = 0;
  auto add = [&](RequestPayload payload) {
    Request request;
    request.id = ++id;
    request.payload = std::move(payload);
    lines.push_back(EncodeRequest(request));
  };
  for (int round = 0; round < 260; ++round) {
    size_t i = static_cast<size_t>(round * 7) % num_users;
    size_t j = static_cast<size_t>(round * 13 + 1) % num_users;
    add(TrustQuery{std::to_string(i), std::to_string(j)});
    add(TopKQuery{std::to_string(j), 1 + round % 8});
    add(ExplainQuery{std::to_string(i), std::to_string(j)});
    add(StatsRequest{});
  }
  // Error-model coverage over the wire.
  add(TrustQuery{"no_such_user", "0"});
  add(TopKQuery{"0", -1});
  lines.push_back("this is not a frame");
  lines.push_back("{\"v\":77,\"id\":9999,\"method\":\"stats\"}");
  // A small ingest + commit epilogue keeps the sequence "any valid mix".
  add(IngestUser{"roundtrip/extra"});
  add(CommitRequest{});
  add(StatsRequest{});
  return lines;
}

struct ServedRun {
  std::vector<std::string> responses;
  std::string stderr_log;
  int exit_code = -1;
};

// Pipes \p lines through a fresh wot_served process (optionally booted
// with --shards), captures stdout line-by-line and stderr to a file.
ServedRun RunServed(const std::vector<std::string>& lines,
                    const char* shards = nullptr) {
  ServedRun run;
  std::string stderr_path =
      ::testing::TempDir() + "/wot_served_stderr.log";

  int in_pipe[2];   // parent -> child stdin
  int out_pipe[2];  // child stdout -> parent
  if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return run;
  }
  pid_t pid = fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork() failed";
    return run;
  }
  if (pid == 0) {
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    int err_fd = open(stderr_path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err_fd >= 0) dup2(err_fd, STDERR_FILENO);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    if (shards != nullptr) {
      execl(ServedBinary(), ServedBinary(), "--users", "80", "--seed",
            "123", "--threads", "1", "--shards", shards,
            static_cast<char*>(nullptr));
    } else {
      execl(ServedBinary(), ServedBinary(), "--users", "80", "--seed",
            "123", "--threads", "1", static_cast<char*>(nullptr));
    }
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);

  // Writer thread: pipelines the whole script, then closes stdin. A
  // separate thread is required — with >64KB in flight, writing and
  // reading from one thread would deadlock on full pipe buffers.
  std::thread writer([&lines, fd = in_pipe[1]] {
    for (const std::string& line : lines) {
      std::string frame = line + "\n";
      size_t written = 0;
      while (written < frame.size()) {
        ssize_t n = ::write(fd, frame.data() + written,
                            frame.size() - written);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        written += static_cast<size_t>(n);
      }
    }
    close(fd);
  });

  std::string output;
  char chunk[1 << 16];
  while (true) {
    ssize_t n = ::read(out_pipe[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    output.append(chunk, static_cast<size_t>(n));
  }
  writer.join();
  close(out_pipe[0]);

  int wait_status = 0;
  waitpid(pid, &wait_status, 0);
  run.exit_code =
      WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;

  for (std::string_view line : Split(output, '\n')) {
    if (!line.empty()) run.responses.emplace_back(line);
  }
  std::ifstream err(stderr_path);
  std::stringstream err_text;
  err_text << err.rdbuf();
  run.stderr_log = err_text.str();
  return run;
}

size_t CountOccurrences(const std::string& text,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ServedRoundTripTest, PipelinedScriptMatchesLoopbackByteForByte) {
  ASSERT_NE(ServedBinary(), nullptr)
      << "WOT_SERVED_BIN not set; run through ctest";
  Dataset dataset = ServedDataset();
  std::vector<std::string> script = BuildScript(dataset.num_users());
  ASSERT_GT(script.size(), 1000u);

  ServedRun run = RunServed(script);
  ASSERT_EQ(run.exit_code, 0) << run.stderr_log;
  ASSERT_EQ(run.responses.size(), script.size());

  // The reference: the same frontend logic, in-process, same dataset,
  // with the ConnectionContext the stdio connection server supplies —
  // one connection, request i+1 read off it when line i dispatches.
  std::unique_ptr<TrustService> service =
      TrustService::Create(dataset).ValueOrDie();
  ServiceFrontend loopback(service.get());
  for (size_t i = 0; i < script.size(); ++i) {
    ConnectionContext context;
    context.connections_active = 1;
    context.connections_accepted = 1;
    context.connection_requests_served = static_cast<int64_t>(i) + 1;
    EXPECT_EQ(run.responses[i], loopback.DispatchLine(script[i], context))
        << "response " << i << " diverged for request: " << script[i];
  }

  // One process, 1000+ requests, ONE boot.
  Response final_stats;
  ASSERT_TRUE(
      DecodeResponse(run.responses.back(), &final_stats).ok());
  ASSERT_TRUE(final_stats.status.ok());
  const StatsResult& stats =
      std::get<StatsResult>(final_stats.payload);
  // Unsharded serving: ONE boot, no shard fields on the wire.
  EXPECT_EQ(stats.service_boots, 1);
  EXPECT_EQ(stats.shards, 0);
  EXPECT_TRUE(stats.shard_service_boots.empty());
  EXPECT_GE(stats.requests_served,
            static_cast<int64_t>(script.size()));
  EXPECT_EQ(CountOccurrences(run.stderr_log, "boot"), 1u)
      << run.stderr_log;
}

// The boots-aggregation satellite: a router fronting N shards must not
// claim `service_boots == 1` — it reports the per-shard boots and their
// aggregate, while the process still logs exactly one boot line.
TEST(ServedRoundTripTest, ShardedServerReportsPerShardBoots) {
  ASSERT_NE(ServedBinary(), nullptr)
      << "WOT_SERVED_BIN not set; run through ctest";
  std::vector<std::string> script;
  Request request;
  request.id = 1;
  request.payload = StatsRequest{};
  script.push_back(EncodeRequest(request));

  ServedRun run = RunServed(script, /*shards=*/"3");
  ASSERT_EQ(run.exit_code, 0) << run.stderr_log;
  ASSERT_EQ(run.responses.size(), 1u);
  Response response;
  ASSERT_TRUE(DecodeResponse(run.responses[0], &response).ok());
  ASSERT_TRUE(response.status.ok());
  const StatsResult& stats = std::get<StatsResult>(response.payload);
  EXPECT_EQ(stats.service_boots, 3);
  EXPECT_EQ(stats.shards, 3);
  EXPECT_EQ(stats.shard_service_boots,
            (std::vector<int64_t>{1, 1, 1}));
  ASSERT_EQ(stats.shard_requests_served.size(), 3u);
  EXPECT_EQ(stats.users, 80);  // the partition covers everyone
  EXPECT_EQ(CountOccurrences(run.stderr_log, "boot"), 1u)
      << run.stderr_log;
}

TEST(ServedRoundTripTest, SocketModeServesSequentialConnections) {
  ASSERT_NE(ServedBinary(), nullptr)
      << "WOT_SERVED_BIN not set; run through ctest";
  std::string socket_path = ::testing::TempDir() + "/wot_served_test.sock";
  std::remove(socket_path.c_str());

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl(ServedBinary(), ServedBinary(), "--users", "80", "--seed",
          "123", "--socket", socket_path.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  wot::testing::ChildProcess served(pid);

  // Reference service for expected values.
  Dataset dataset = ServedDataset();
  std::unique_ptr<TrustService> reference =
      TrustService::Create(dataset).ValueOrDie();

  // The server needs a moment to bind; retry the connect.
  Result<std::unique_ptr<SocketClient>> client =
      Status::Internal("never connected");
  for (int attempt = 0; attempt < 100 && !client.ok(); ++attempt) {
    client = SocketClient::Connect(socket_path);
    if (!client.ok()) usleep(50 * 1000);
  }
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (int q = 0; q < 50; ++q) {
    size_t i = static_cast<size_t>(q) % dataset.num_users();
    size_t j = static_cast<size_t>(q * 3 + 1) % dataset.num_users();
    Request request;
    request.payload = TrustQuery{std::to_string(i), std::to_string(j)};
    Result<Response> response = client.ValueOrDie()->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.ValueOrDie().status.ok());
    EXPECT_EQ(
        std::get<TrustResult>(response.ValueOrDie().payload).trust,
        reference->Snapshot()->Trust(i, j));
  }

  // A second connection is served after the first closes.
  client.ValueOrDie().reset();
  Result<std::unique_ptr<SocketClient>> second =
      SocketClient::Connect(socket_path);
  for (int attempt = 0; attempt < 100 && !second.ok(); ++attempt) {
    second = SocketClient::Connect(socket_path);
    if (!second.ok()) usleep(50 * 1000);
  }
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  Request stats_request;
  stats_request.payload = StatsRequest{};
  Result<Response> stats = second.ValueOrDie()->Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats.ValueOrDie().status.ok());
  EXPECT_EQ(std::get<StatsResult>(stats.ValueOrDie().payload)
                .service_boots,
            1);

  served.Stop(SIGTERM);
}

}  // namespace
}  // namespace api
}  // namespace wot
