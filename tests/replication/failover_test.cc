// Failover integration test (label: integration; needs $WOT_SERVED_BIN).
//
// Spawns a REAL primary (`wot_served --data_dir`) and a REAL replica
// (`wot_served --replica-of`), drives acked traffic into the primary
// while a reader thread hammers the replica, SIGKILLs the primary
// mid-traffic, promotes the replica over the wire (repl_promote), and
// asserts the ISSUE's failover contract:
//
//   * zero non-framed responses: every reply from the replica decodes,
//     before, during and after the kill (writes bounce as framed
//     errors until promotion — never as connection resets);
//   * no lost committed writes: the promoted replica's query surface is
//     byte-identical to a never-crashed reference fed the identical
//     committed history;
//   * strictly monotonic epochs: the first commit after promotion
//     publishes exactly v_kill + 1;
//   * the failover is observable: repl_status and the metrics method
//     both report a non-zero replication.failovers.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
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
namespace replication {
namespace {

constexpr int64_t kUsers = 50;
constexpr int64_t kSeed = 7;

const char* ServedBinary() {
  const char* bin = std::getenv("WOT_SERVED_BIN");
  return (bin != nullptr && bin[0] != '\0') ? bin : nullptr;
}

Dataset ServedDataset() {
  SynthConfig config;
  config.num_users = static_cast<size_t>(kUsers);
  config.seed = static_cast<uint64_t>(kSeed);
  return GenerateCommunity(config).ValueOrDie().dataset;
}

pid_t SpawnPrimary(const std::string& data_dir,
                   const std::string& socket_path,
                   const std::string& stderr_path) {
  std::remove(socket_path.c_str());
  pid_t pid = fork();
  if (pid == 0) {
    int err_fd =
        open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    // Both streams go to the log: an inherited stdout pipe would keep
    // ctest waiting for EOF if the test dies before killing children.
    if (err_fd >= 0) {
      dup2(err_fd, STDERR_FILENO);
      dup2(err_fd, STDOUT_FILENO);
    }
    execl(ServedBinary(), ServedBinary(), "--users", "50", "--seed", "7",
          "--threads", "1", "--socket", socket_path.c_str(), "--data_dir",
          data_dir.c_str(), "--fsync", "off",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

pid_t SpawnReplica(const std::string& data_dir,
                   const std::string& socket_path,
                   const std::string& primary_socket,
                   const std::string& stderr_path) {
  std::remove(socket_path.c_str());
  pid_t pid = fork();
  if (pid == 0) {
    int err_fd =
        open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    // Both streams go to the log: an inherited stdout pipe would keep
    // ctest waiting for EOF if the test dies before killing children.
    if (err_fd >= 0) {
      dup2(err_fd, STDERR_FILENO);
      dup2(err_fd, STDOUT_FILENO);
    }
    const std::string replica_of = "unix:" + primary_socket;
    execl(ServedBinary(), ServedBinary(), "--replica-of",
          replica_of.c_str(), "--threads", "1", "--socket",
          socket_path.c_str(), "--data_dir", data_dir.c_str(), "--fsync",
          "off", static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

std::unique_ptr<api::SocketClient> ConnectWithRetry(
    const std::string& socket_path) {
  Result<std::unique_ptr<api::SocketClient>> client =
      Status::Internal("never connected");
  for (int attempt = 0; attempt < 400 && !client.ok(); ++attempt) {
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

void SendToBoth(api::ApiClient* server, api::Frontend* reference,
                const api::Request& request) {
  Result<api::Response> served = server->Call(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(api::EncodeResponse(served.ValueOrDie()),
            api::EncodeResponse(reference->Dispatch(request)))
      << "request id " << request.id;
}

Result<api::ReplStatusResult> ReplStatus(api::ApiClient* client) {
  Result<api::Response> response =
      client->Call(MakeRequest(777, api::ReplStatusRequest{}));
  if (!response.ok()) return response.status();
  if (!response.ValueOrDie().status.ok()) {
    return Status::Internal(response.ValueOrDie().status.message);
  }
  const api::ReplStatusResult* status =
      std::get_if<api::ReplStatusResult>(&response.ValueOrDie().payload);
  if (status == nullptr) return Status::Internal("wrong payload type");
  return *status;
}

/// Polls the replica until its applied version reaches \p version, for
/// about 10 s. The failure names the last answer the replica gave.
::testing::AssertionResult AwaitApplied(api::ApiClient* replica,
                                        uint64_t version) {
  std::string last = "no repl_status answer";
  for (int attempt = 0; attempt < 400; ++attempt) {
    Result<api::ReplStatusResult> status = ReplStatus(replica);
    if (status.ok()) {
      const uint64_t applied = status.ValueOrDie().applied_version;
      if (applied >= version) return ::testing::AssertionSuccess();
      last = "applied_version " + std::to_string(applied);
    } else {
      last = status.status().ToString();
    }
    usleep(25 * 1000);
  }
  return ::testing::AssertionFailure()
         << "replica did not apply version " << version
         << " in time; last repl_status: " << last;
}

TEST(FailoverTest, SigkillPrimaryPromoteReplicaLosesNothingCommitted) {
  ASSERT_NE(ServedBinary(), nullptr)
      << "WOT_SERVED_BIN not set; run through ctest";
  const std::string primary_dir =
      storage::testing::FreshDir("failover_primary");
  const std::string replica_dir =
      storage::testing::FreshDir("failover_replica");
  const std::string primary_sock =
      ::testing::TempDir() + "/failover_primary.sock";
  const std::string replica_sock =
      ::testing::TempDir() + "/failover_replica.sock";

  std::unique_ptr<TrustService> reference_service =
      TrustService::Create(ServedDataset()).ValueOrDie();
  api::ServiceFrontend reference(reference_service.get());

  // The replica reader and what it shares, stopped and joined on every
  // exit path. Declared before the children so it is joined after they
  // are killed: a reader waiting on the replica then sees its socket
  // close.
  std::atomic<bool> stop_reader{false};
  std::atomic<int64_t> reads_served{0};
  std::atomic<int64_t> read_failures{0};
  std::thread reader;
  wot::testing::ScopeExit join_reader([&] {
    stop_reader.store(true);
    if (reader.joinable()) reader.join();
  });

  wot::testing::ChildProcess primary_process(SpawnPrimary(
      primary_dir, primary_sock,
      ::testing::TempDir() + "/failover_primary.log"));
  ASSERT_GT(primary_process.pid(), 0);
  std::unique_ptr<api::SocketClient> primary =
      ConnectWithRetry(primary_sock);
  ASSERT_NE(primary, nullptr);

  // Committed history, phase 1 — identical on primary and reference.
  int64_t id = 0;
  for (int i = 0; i < 5; ++i) {
    SendToBoth(primary.get(), &reference,
               MakeRequest(++id, api::IngestUser{"fo_user_" +
                                                 std::to_string(i)}));
    if (::testing::Test::HasFatalFailure()) return;
  }
  SendToBoth(primary.get(), &reference,
             MakeRequest(++id, api::CommitRequest{}));
  if (::testing::Test::HasFatalFailure()) return;

  wot::testing::ChildProcess replica_process(SpawnReplica(
      replica_dir, replica_sock, primary_sock,
      ::testing::TempDir() + "/failover_replica.log"));
  ASSERT_GT(replica_process.pid(), 0);
  std::unique_ptr<api::SocketClient> replica =
      ConnectWithRetry(replica_sock);
  ASSERT_NE(replica, nullptr);

  // A reader hammers the replica across the whole kill + promote
  // window: every reply must arrive and decode — a connection reset or
  // unframed reply anywhere fails the test.
  reader = std::thread([&] {
    std::unique_ptr<api::SocketClient> conn =
        ConnectWithRetry(replica_sock);
    if (conn == nullptr) {
      read_failures.fetch_add(1);
      return;
    }
    int64_t rid = 400000;
    while (!stop_reader.load(std::memory_order_relaxed)) {
      api::TrustQuery query;
      query.source = std::to_string(rid % kUsers);
      query.target = std::to_string((rid + 1) % kUsers);
      Result<api::Response> response =
          conn->Call(MakeRequest(++rid, query));
      if (response.ok()) {
        reads_served.fetch_add(1);
      } else {
        read_failures.fetch_add(1);
      }
      usleep(2 * 1000);
    }
  });

  // Phase 2 mid-traffic: more committed writes while the reader runs.
  SendToBoth(primary.get(), &reference,
             MakeRequest(++id, api::IngestUser{"fo_late_user"}));
  api::IngestReview review;
  review.writer = "fo_late_user";
  review.object = 0;
  SendToBoth(primary.get(), &reference, MakeRequest(++id, review));
  SendToBoth(primary.get(), &reference,
             MakeRequest(++id, api::CommitRequest{}));
  if (::testing::Test::HasFatalFailure()) return;
  const uint64_t committed_version =
      reference_service->Snapshot()->version();
  ASSERT_TRUE(AwaitApplied(replica.get(), committed_version));

  // Writes to the replica bounce as FRAMED errors before promotion.
  Result<api::Response> denied =
      replica->Call(MakeRequest(++id, api::IngestUser{"too_early"}));
  ASSERT_TRUE(denied.ok()) << denied.status().ToString();
  EXPECT_EQ(denied.ValueOrDie().status.code,
            api::ApiCode::kInvalidArgument);

  // SIGKILL the primary mid-traffic — no drain, no handshake.
  ASSERT_TRUE(WIFSIGNALED(primary_process.Stop(SIGKILL)));

  // Promote over the wire. The ack reports the flipped role.
  Result<api::Response> promoted =
      replica->Call(MakeRequest(++id, api::ReplPromoteRequest{}));
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_TRUE(promoted.ValueOrDie().status.ok())
      << promoted.ValueOrDie().status.message;
  {
    const api::ReplStatusResult& status =
        std::get<api::ReplStatusResult>(promoted.ValueOrDie().payload);
    EXPECT_EQ(status.role,
              static_cast<int64_t>(api::ReplRole::kPrimary));
    EXPECT_EQ(status.failovers, 1);
    EXPECT_EQ(status.applied_version, committed_version);
  }

  stop_reader.store(true);
  reader.join();
  EXPECT_GT(reads_served.load(), 0);
  EXPECT_EQ(read_failures.load(), 0);

  // No lost committed writes: the promoted replica's query surface is
  // byte-identical to the reference.
  for (size_t i = 0; i < static_cast<size_t>(kUsers); i += 5) {
    for (size_t j = 0; j < static_cast<size_t>(kUsers); j += 11) {
      api::TrustQuery query;
      query.source = std::to_string(i);
      query.target = std::to_string(j);
      SendToBoth(replica.get(), &reference, MakeRequest(++id, query));
      if (::testing::Test::HasFatalFailure()) return;
    }
    api::TopKQuery topk;
    topk.source = std::to_string(i);
    topk.k = 10;
    SendToBoth(replica.get(), &reference, MakeRequest(++id, topk));
    if (::testing::Test::HasFatalFailure()) return;
  }
  api::TrustQuery late;
  late.source = "fo_late_user";
  late.target = "fo_user_0";
  SendToBoth(replica.get(), &reference, MakeRequest(++id, late));

  // Strictly monotonic epochs across the promotion: the first commit on
  // the new primary publishes exactly committed_version + 1.
  SendToBoth(replica.get(), &reference,
             MakeRequest(++id, api::IngestUser{"post_failover_user"}));
  Result<api::Response> commit =
      replica->Call(MakeRequest(++id, api::CommitRequest{}));
  ASSERT_TRUE(commit.ok());
  ASSERT_TRUE(commit.ValueOrDie().status.ok());
  EXPECT_EQ(std::get<api::CommitResult>(commit.ValueOrDie().payload)
                .snapshot_version,
            committed_version + 1);
  reference.Dispatch(MakeRequest(id, api::CommitRequest{}));

  // The failover is visible on the metrics surface.
  Result<api::Response> scraped =
      replica->Call(MakeRequest(++id, api::MetricsRequest{}));
  ASSERT_TRUE(scraped.ok());
  ASSERT_TRUE(scraped.ValueOrDie().status.ok());
  int64_t failovers = 0;
  for (const api::MetricValue& counter :
       std::get<api::MetricsResult>(scraped.ValueOrDie().payload)
           .counters) {
    if (counter.name == "replication.failovers") {
      failovers = counter.value;
    }
  }
  EXPECT_EQ(failovers, 1);

  replica_process.Stop(SIGTERM);
}

}  // namespace
}  // namespace replication
}  // namespace wot
