// Driving a real wot_served: process control, the open-loop load
// generator, and the per-operation records the checks and metrics read.
//
// The generator is one thread and one epoll set over at most four unix
// socket connections. Reads arrive as a Poisson process and each is timed
// from its scheduled send time, so a stall charges every request queued
// behind it; how late the generator itself ran is recorded per request.
// Writes are never pipelined — a connection's requests may be dispatched
// concurrently by the server, and the oracle replays the writes in send
// order — so each write is sent when the previous one is acknowledged.
#ifndef WOT_BENCH_E2E_LOADGEN_H_
#define WOT_BENCH_E2E_LOADGEN_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "workload.h"
#include "wot/api/binary_codec.h"
#include "wot/api/client.h"
#include "wot/util/result.h"

namespace wot {
namespace e2e {

/// \brief Nanoseconds on the monotonic clock.
int64_t NowNs();

enum class Phase : uint8_t {
  kWarmup,   // before the fixed phase (answers still checked)
  kMeasure,  // the fixed phase the end-to-end metrics summarize
  kTail,     // write cycles after the reads (kTail writers)
  kControl,  // probes, pending writes and restart checks
};

/// \brief A request sent and what came back.
struct OpRecord {
  Op op;
  Phase phase = Phase::kWarmup;
  bool answered = false;
  bool ok = false;     // answered with an OK status that decoded
  bool wrong = false;  // a wrong answer: error status, bad id, a version
                       // below the causal floor, or an oracle mismatch
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  uint64_t version = 0;  // snapshot version / commit epoch answered at
  uint64_t floor = 0;    // lowest version the answer may carry
  uint64_t digest = 0;   // AnswerDigest of a read
  int64_t assigned = 0;  // ingest_user id; commit: 1 when published

  /// Latency from the scheduled send.
  int64_t latency_ns() const { return done_ns - due_ns; }
  /// A request with no OK answer within one second failed.
  bool failed() const {
    return !ok || wrong || latency_ns() > 1'000'000'000;
  }
};

/// \brief Every request of a run, in send order. A deque: growing it never
/// moves the records, so the generator never stalls on a large copy.
using OpRecords = std::deque<OpRecord>;

/// \brief Fills \p record from a decoded response received at \p now_ns.
void RecordAnswer(const api::Response& response, int64_t now_ns,
                  OpRecord* record);

/// \brief A child wot_served process; killed and reaped on destruction.
class ServedProcess {
 public:
  static Result<std::unique_ptr<ServedProcess>> Spawn(
      const std::string& exe, const std::vector<std::string>& args,
      const std::string& log_path);
  ~ServedProcess();
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;

  /// \brief Sends \p signal and waits for the process to end.
  void Stop(int signal);
  /// \brief Waits for the process to exit; its exit code, or -1.
  int Wait();
  /// \brief True while the process has not exited.
  bool Running();
  /// \brief VmHWM (peak resident set) in bytes; 0 if unreadable.
  int64_t PeakRssBytes() const;

 private:
  explicit ServedProcess(pid_t pid) : pid_(pid) {}
  pid_t pid_;
  bool reaped_ = false;
};

/// \brief Connects to \p socket until the server answers a `stats` with
/// OK (or \p timeout_s passes). Returns the connected control client.
Result<std::unique_ptr<api::SocketClient>> WaitReady(
    ServedProcess* process, const std::string& socket,
    api::WireProtocol wire, double timeout_s, api::StatsResult* stats);

/// \brief One blocking request whose answer must carry a \p T.
template <typename T, typename Payload>
Result<T> CallFor(api::SocketClient* client, Payload payload) {
  api::Request request;
  request.payload = std::move(payload);
  WOT_ASSIGN_OR_RETURN(api::Response response, client->Call(request));
  const T* result = std::get_if<T>(&response.payload);
  if (result == nullptr) {
    return Status::Internal(std::string(api::MethodName(request.payload)) +
                            " failed: " + response.status.ToString());
  }
  return *result;
}

/// \brief One blocking request on the control client, recorded.
void CallRecorded(api::SocketClient* client, const Op& op, Phase phase,
                  uint64_t floor, OpRecords* records);

/// \brief The open-loop run: warmup, the fixed phase and (per writer
/// mode) the write cycles, over up to four connections.
class Traffic {
 public:
  struct Plan {
    double warmup_s = 0;
    double measure_s = 0;
    int64_t cycles = 0;  // kTail write cycles
    std::function<void()> on_measure_start;
    std::function<void()> on_measure_end;
  };

  Traffic(const WorkloadSpec& spec, RequestGen* gen,
          OpRecords* records, std::vector<size_t>* writes)
      : spec_(spec), gen_(gen), records_(records), writes_(writes) {}
  ~Traffic();
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  Status Connect(const std::string& socket);
  Status Run(const Plan& plan);

  int64_t measure_start_ns() const { return measure_start_; }
  int64_t measure_end_ns() const { return measure_end_; }
  int64_t outstanding_max() const { return outstanding_max_; }
  /// Highest commit epoch acknowledged so far.
  uint64_t acked_epoch() const { return acked_epoch_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    bool want_out = false;
    std::deque<size_t> inflight;
    std::string in;  // NDJSON bytes not yet split into lines
    std::unique_ptr<api::BinaryFrameAssembler> frames;
    uint64_t max_seen = 0;
    bool dead = false;
  };

  void Enqueue(size_t conn, const Op& op, Phase phase, int64_t due,
               int64_t now);
  void Flush(size_t conn);
  void Receive(size_t conn);
  void OnFrame(size_t conn, std::string_view frame, int64_t now);
  void FailConn(size_t conn);
  /// Starts or continues the write cycles; returns the next due time
  /// (INT64_MAX when nothing is scheduled).
  int64_t PumpWriter(int64_t now);
  size_t ReadInflight() const;

  const WorkloadSpec& spec_;
  RequestGen* gen_;
  OpRecords* records_;
  std::vector<size_t>* writes_;
  std::vector<Conn> conns_;
  size_t read_conns_ = 0;
  size_t writer_conn_ = 0;
  int epoll_fd_ = -1;

  int64_t t0_ = 0;
  int64_t measure_start_ = 0;
  int64_t measure_end_ = 0;
  int64_t read_end_ = 0;
  int64_t outstanding_max_ = 0;
  uint64_t acked_epoch_ = 0;

  // Writer state.
  int64_t cycles_ = 0;
  int64_t cycle_ = 0;
  std::vector<Op> cycle_ops_;
  size_t cycle_pos_ = 0;
  int64_t cycle_due_ = 0;
  int64_t last_ack_ = 0;
  bool writer_done_ = false;
};

/// \brief Total size of the regular files under \p dir.
int64_t DirBytes(const std::string& dir);

}  // namespace e2e
}  // namespace wot

#endif  // WOT_BENCH_E2E_LOADGEN_H_
