// TCP listener integration round trip (ISSUE-5 satellite; label:
// integration): the ConnectionServer accept path is transport-agnostic,
// so serving over a TCP listening socket must be byte-identical to the
// in-process frontend — and the real `wot_served --listen host:port`
// binary must answer a SocketClient over TCP and drain cleanly on
// SIGTERM.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
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
#include "wot/api/unix_socket.h"
#include "wot/server/connection_server.h"
#include "wot/service/trust_service.h"
#include "wot/synth/generator.h"

namespace wot {
namespace server {
namespace {

Dataset TestCommunity() {
  SynthConfig config;
  config.num_users = 70;
  config.seed = 808;
  return GenerateCommunity(config).ValueOrDie().dataset;
}

TEST(TcpListenerTest, ConnectionServerOverTcpMatchesLoopback) {
  Dataset seed = TestCommunity();
  const size_t num_users = seed.num_users();
  std::unique_ptr<TrustService> service =
      TrustService::Create(seed).ValueOrDie();
  api::ServiceFrontend frontend(service.get());

  // Port 0: the kernel picks; the bound address reports what it chose.
  std::string bound;
  Result<int> listen_fd =
      api::ListenTcpSocket("127.0.0.1:0", /*backlog=*/16, &bound);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
  EXPECT_NE(bound, "127.0.0.1:0");  // a real port was filled in

  ConnectionServer server(&frontend);
  std::thread serve_thread([&server, fd = listen_fd.ValueOrDie()] {
    EXPECT_TRUE(server.Serve(fd).ok());
  });

  // Three sequential pipelining clients over real TCP connections.
  std::unique_ptr<TrustService> reference_service =
      TrustService::Create(seed).ValueOrDie();
  api::ServiceFrontend reference(reference_service.get());
  for (int c = 0; c < 3; ++c) {
    Result<int> fd = api::ConnectTcpSocket(bound);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    std::vector<std::string> script;
    std::string burst;
    for (int i = 0; i < 60; ++i) {
      api::Request request;
      request.id = i + 1;
      size_t a = static_cast<size_t>(c * 31 + i * 3) % num_users;
      size_t b = static_cast<size_t>(c * 7 + i * 11 + 1) % num_users;
      if (i % 3 == 0) {
        request.payload =
            api::TopKQuery{std::to_string(a), 1 + i % 6};
      } else {
        request.payload =
            api::TrustQuery{std::to_string(a), std::to_string(b)};
      }
      script.push_back(api::EncodeRequest(request));
      burst += script.back();
      burst += '\n';
    }
    ASSERT_TRUE(api::SendAll(fd.ValueOrDie(), burst).ok());
    api::FdLineReader reader(fd.ValueOrDie());
    for (size_t i = 0; i < script.size(); ++i) {
      std::string line;
      ASSERT_TRUE(reader.Next(&line).ValueOrDie());
      EXPECT_EQ(line, reference.DispatchLine(script[i]))
          << "TCP response " << i << " diverged";
    }
    ::close(fd.ValueOrDie());
  }

  server.RequestStop();
  serve_thread.join();
  EXPECT_EQ(server.stats().connections_accepted, 3);
}

TEST(TcpListenerTest, BadEndpointsAreRejected) {
  EXPECT_FALSE(api::ListenTcpSocket("no-port-here").ok());
  EXPECT_FALSE(api::ListenTcpSocket("127.0.0.1:70000").ok());
  EXPECT_FALSE(api::ListenTcpSocket("not.an.ip:80").ok());
  EXPECT_FALSE(api::ConnectTcpSocket("127.0.0.1:notaport").ok());
}

// The real binary: wot_served --listen 127.0.0.1:0 logs the bound
// address; a SocketClient over TCP round-trips queries against it.
TEST(TcpListenerTest, WotServedListensOnTcp) {
  const char* bin = std::getenv("WOT_SERVED_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "WOT_SERVED_BIN not set; run through ctest";
  }
  std::string stderr_path =
      ::testing::TempDir() + "/wot_served_tcp_stderr.log";
  std::remove(stderr_path.c_str());

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int err_fd = open(stderr_path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err_fd >= 0) dup2(err_fd, STDERR_FILENO);
    execl(bin, bin, "--users", "70", "--seed", "808", "--listen",
          "127.0.0.1:0", static_cast<char*>(nullptr));
    _exit(127);
  }
  wot::testing::ChildProcess served(pid);

  // Poll the stderr log for the "listening on tcp HOST:PORT" line to
  // learn the ephemeral port.
  std::string endpoint;
  for (int attempt = 0; attempt < 200 && endpoint.empty(); ++attempt) {
    std::ifstream err(stderr_path);
    std::string line;
    while (std::getline(err, line)) {
      size_t pos = line.find("listening on tcp ");
      if (pos != std::string::npos) {
        endpoint = line.substr(pos + std::string("listening on tcp ").size());
        size_t space = endpoint.find(' ');
        if (space != std::string::npos) endpoint.resize(space);
        break;
      }
    }
    if (endpoint.empty()) usleep(50 * 1000);
  }
  ASSERT_FALSE(endpoint.empty()) << "server never logged its endpoint";

  Result<std::unique_ptr<api::SocketClient>> client =
      Status::Internal("never connected");
  for (int attempt = 0; attempt < 100 && !client.ok(); ++attempt) {
    client = api::SocketClient::ConnectTcp(endpoint);
    if (!client.ok()) usleep(50 * 1000);
  }
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Dataset seed = TestCommunity();
  std::unique_ptr<TrustService> reference =
      TrustService::Create(seed).ValueOrDie();
  for (int q = 0; q < 30; ++q) {
    size_t i = static_cast<size_t>(q) % seed.num_users();
    size_t j = static_cast<size_t>(q * 3 + 1) % seed.num_users();
    api::Request request;
    request.payload =
        api::TrustQuery{std::to_string(i), std::to_string(j)};
    Result<api::Response> response = client.ValueOrDie()->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response.ValueOrDie().status.ok());
    EXPECT_EQ(
        std::get<api::TrustResult>(response.ValueOrDie().payload).trust,
        reference->Snapshot()->Trust(i, j));
  }
  client.ValueOrDie().reset();

  const int wait_status = served.Stop(SIGTERM);
  EXPECT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
  std::ifstream err(stderr_path);
  std::stringstream err_text;
  err_text << err.rdbuf();
  EXPECT_NE(err_text.str().find("shutdown"), std::string::npos)
      << err_text.str();
}

}  // namespace
}  // namespace server
}  // namespace wot
