// Restart-under-traffic integration test (label: integration; needs
// $WOT_SERVED_BIN).
//
// Spawns the real wot_served binary on a --data_dir with --fsync always,
// drives acked ingest + commit traffic over its unix socket, SIGKILLs
// the process mid-stream (no shutdown handshake of any kind), restarts
// it on the same directory, and byte-diffs its whole query surface
// against an in-process reference frontend that was fed the identical
// logical history and never crashed. With --fsync always every ack
// implies durability, so the recovered server must remember every
// acknowledged mutation — the staged-but-uncommitted tail included,
// which only the WAL holds.
//
// Requests are sent strictly one at a time (Call is synchronous): the
// server's dispatch pool may execute pipelined requests out of order,
// so sequential calls are what makes acked-prefix reasoning exact.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "storage/storage_test_util.h"
#include "testing/child_process.h"
#include "wot/api/client.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/service/trust_service.h"
#include "wot/synth/generator.h"

namespace wot {
namespace storage {
namespace {

constexpr int64_t kUsers = 50;
constexpr int64_t kSeed = 7;

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

struct ServedProcess {
  pid_t pid = -1;
  std::string socket_path;
};

ServedProcess SpawnServed(const std::string& data_dir,
                          const std::string& socket_path,
                          const std::string& stderr_path) {
  ServedProcess process;
  std::remove(socket_path.c_str());
  pid_t pid = fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork() failed";
    return process;
  }
  if (pid == 0) {
    int err_fd =
        open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err_fd >= 0) dup2(err_fd, STDERR_FILENO);
    execl(ServedBinary(), ServedBinary(), "--users", "50", "--seed", "7",
          "--threads", "1", "--socket", socket_path.c_str(), "--data_dir",
          data_dir.c_str(), "--fsync", "always",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  process.pid = pid;
  process.socket_path = socket_path;
  return process;
}

std::unique_ptr<api::SocketClient> ConnectWithRetry(
    const std::string& socket_path) {
  Result<std::unique_ptr<api::SocketClient>> client =
      Status::Internal("never connected");
  for (int attempt = 0; attempt < 200 && !client.ok(); ++attempt) {
    client = api::SocketClient::Connect(socket_path);
    if (!client.ok()) usleep(50 * 1000);
  }
  if (!client.ok()) {
    ADD_FAILURE() << "cannot connect: " << client.status().ToString();
    return nullptr;
  }
  return std::move(client).ValueOrDie();
}

api::Request MakeRequest(int64_t id, api::RequestPayload payload) {
  api::Request request;
  request.id = id;
  request.payload = std::move(payload);
  return request;
}

/// Sends \p request to the live server AND the in-process reference;
/// the acks must be byte-identical (stats excepted — never sent here).
void SendToBoth(api::ApiClient* server, api::Frontend* reference,
                const api::Request& request) {
  Result<api::Response> served = server->Call(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(api::EncodeResponse(served.ValueOrDie()),
            api::EncodeResponse(reference->Dispatch(request)))
      << "request id " << request.id;
}

/// Polls \p client's stats until the segment of snapshot \p version is on
/// disk (the server writes segments in the background), failing after a
/// bounded wait. A kill before that point would leave phase 1 in the WAL
/// tail too, and recovery would replay more than phase 2.
void AwaitSegment(api::ApiClient* client, uint64_t version) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int64_t id = 5000;
  while (true) {
    Result<api::Response> response =
        client->Call(MakeRequest(++id, api::StatsRequest{}));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.ValueOrDie().status.ok());
    const api::StatsResult& stats =
        std::get<api::StatsResult>(response.ValueOrDie().payload);
    if (stats.segment_epoch >= static_cast<int64_t>(version)) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the segment of snapshot " << version
        << " was not written within 30 s (segment_epoch "
        << stats.segment_epoch << ")";
    usleep(2000);
  }
}

/// The acked logical history, phase by phase.
std::vector<api::Request> Phase1Requests() {
  std::vector<api::Request> requests;
  int64_t id = 0;
  for (int i = 0; i < 6; ++i) {
    requests.push_back(MakeRequest(
        ++id, api::IngestUser{"crash_user_" + std::to_string(i)}));
  }
  api::IngestObject object;
  object.category = "0";
  object.name = "crash_object";
  requests.push_back(MakeRequest(++id, object));
  api::IngestReview review;
  review.writer = "crash_user_0";
  review.object = 0;
  requests.push_back(MakeRequest(++id, review));
  requests.push_back(MakeRequest(++id, api::CommitRequest{}));
  return requests;
}

std::vector<api::Request> Phase2Requests() {
  std::vector<api::Request> requests;
  int64_t id = 1000;
  // Acked but never committed: recovery must replay these off the WAL.
  for (int i = 0; i < 4; ++i) {
    requests.push_back(MakeRequest(
        ++id, api::IngestUser{"mid_stream_" + std::to_string(i)}));
  }
  api::IngestRating rating;
  rating.rater = "mid_stream_0";
  rating.review = 0;
  rating.value = 0.8;
  requests.push_back(MakeRequest(++id, rating));
  return requests;
}

TEST(CrashRecoveryTest, SigkillMidStreamLosesNothingAcked) {
  ASSERT_NE(ServedBinary(), nullptr)
      << "WOT_SERVED_BIN not set; run through ctest";
  std::string data_dir = storage::testing::FreshDir("crash_recovery_dir");
  std::string stderr_1 = ::testing::TempDir() + "/crash_served_1.log";
  std::string stderr_2 = ::testing::TempDir() + "/crash_served_2.log";
  std::string socket_1 = ::testing::TempDir() + "/crash_served_1.sock";
  std::string socket_2 = ::testing::TempDir() + "/crash_served_2.sock";

  // The reference stack: identical dataset, identical history, no crash,
  // no storage (durability must not change a single response byte).
  std::unique_ptr<TrustService> reference_service =
      TrustService::Create(ServedDataset()).ValueOrDie();
  api::ServiceFrontend reference(reference_service.get());

  // --- Run 1: ingest + commit, then more ingests, then SIGKILL. -------
  ServedProcess first = SpawnServed(data_dir, socket_1, stderr_1);
  wot::testing::ChildProcess first_process(first.pid);
  ASSERT_GT(first.pid, 0);
  {
    std::unique_ptr<api::SocketClient> client =
        ConnectWithRetry(socket_1);
    ASSERT_NE(client, nullptr);
    for (const api::Request& request : Phase1Requests()) {
      SendToBoth(client.get(), &reference, request);
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (const api::Request& request : Phase2Requests()) {
      SendToBoth(client.get(), &reference, request);
      if (::testing::Test::HasFatalFailure()) return;
    }
    AwaitSegment(client.get(), reference_service->Snapshot()->version());
    if (::testing::Test::HasFatalFailure()) return;
  }
  // No shutdown, no flush request, no connection drain: SIGKILL.
  ASSERT_TRUE(WIFSIGNALED(first_process.Stop(SIGKILL)));

  // --- Run 2: restart over the same directory. ------------------------
  ServedProcess second = SpawnServed(data_dir, socket_2, stderr_2);
  wot::testing::ChildProcess second_process(second.pid);
  ASSERT_GT(second.pid, 0);
  std::unique_ptr<api::SocketClient> client = ConnectWithRetry(socket_2);
  ASSERT_NE(client, nullptr);

  // Recovery sanity: same users/reviews/version as the reference, plus
  // the durability counters a recovered durable server must report.
  Result<api::Response> stats_response =
      client->Call(MakeRequest(5000, api::StatsRequest{}));
  ASSERT_TRUE(stats_response.ok());
  ASSERT_TRUE(stats_response.ValueOrDie().status.ok());
  const api::StatsResult& stats =
      std::get<api::StatsResult>(stats_response.ValueOrDie().payload);
  const api::Response reference_stats =
      reference.Dispatch(MakeRequest(5000, api::StatsRequest{}));
  const api::StatsResult& expected =
      std::get<api::StatsResult>(reference_stats.payload);
  EXPECT_EQ(stats.snapshot_version, expected.snapshot_version);
  EXPECT_EQ(stats.users, expected.users);
  EXPECT_EQ(stats.reviews, expected.reviews);
  EXPECT_EQ(stats.ratings, expected.ratings);
  EXPECT_GE(stats.segment_epoch, 1);
  // Phase 2's 5 acked mutations lived only in the WAL at kill time.
  EXPECT_EQ(stats.recovered_replayed_records, 5);

  // Byte-diff the full query surface against the reference.
  const size_t users = static_cast<size_t>(kUsers);
  int64_t id = 10000;
  for (size_t i = 0; i < users; ++i) {
    for (size_t j = 0; j < users; j += 7) {
      api::TrustQuery query;
      query.source = std::to_string(i);
      query.target = std::to_string(j);
      SendToBoth(client.get(), &reference, MakeRequest(++id, query));
      if (::testing::Test::HasFatalFailure()) return;
    }
    api::TopKQuery topk;
    topk.source = std::to_string(i);
    topk.k = 10;
    SendToBoth(client.get(), &reference, MakeRequest(++id, topk));
    api::ExplainQuery explain;
    explain.source = std::to_string(i);
    explain.target = std::to_string((i + 1) % users);
    SendToBoth(client.get(), &reference, MakeRequest(++id, explain));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // The staged tail survived the SIGKILL: committing on both sides
  // publishes the same version with the same derivation counters, and
  // the mid-stream users become queryable with identical answers.
  SendToBoth(client.get(), &reference,
             MakeRequest(++id, api::CommitRequest{}));
  if (::testing::Test::HasFatalFailure()) return;
  for (int i = 0; i < 4; ++i) {
    api::TrustQuery query;
    query.source = "mid_stream_" + std::to_string(i);
    query.target = "crash_user_0";
    SendToBoth(client.get(), &reference, MakeRequest(++id, query));
    if (::testing::Test::HasFatalFailure()) return;
  }

  client.reset();
  second_process.Stop(SIGTERM);
}

}  // namespace
}  // namespace storage
}  // namespace wot
