#include "loadgen.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <variant>

#include "wot/api/codec.h"
#include "wot/api/unix_socket.h"

namespace wot {
namespace e2e {
namespace {

constexpr int64_t kMillis = 1'000'000;
constexpr int64_t kSeconds = 1'000'000'000;
// An answer this late means the server stopped answering: the run ends
// and everything still in flight counts as failed.
constexpr int64_t kHungNs = 3 * kSeconds;

}  // namespace

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * kSeconds + ts.tv_nsec;
}

void RecordAnswer(const api::Response& response, int64_t now_ns,
                  OpRecord* record) {
  record->answered = true;
  record->done_ns = now_ns;
  if (!response.status.ok()) {
    record->wrong = true;
    return;
  }
  record->version = ResponseVersion(response);
  const OpKind kind = record->op.kind;
  if (IsRead(kind)) {
    record->digest = AnswerDigest(response);
    if (record->version < record->floor) record->wrong = true;
  } else if (IsIngest(kind)) {
    const auto* result = std::get_if<api::IngestResult>(&response.payload);
    if (result == nullptr) {
      record->wrong = true;
      return;
    }
    record->assigned = result->assigned_id;
  } else {
    const auto* result = std::get_if<api::CommitResult>(&response.payload);
    if (result == nullptr) {
      record->wrong = true;
      return;
    }
    record->assigned = result->published ? 1 : 0;
  }
  record->ok = true;
}

Result<std::unique_ptr<ServedProcess>> ServedProcess::Spawn(
    const std::string& exe, const std::vector<std::string>& args,
    const std::string& log_path) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(exe);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
             0644);
  if (log_fd < 0) {
    return Status::IOError("open " + log_path + ": " + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even a killed one.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close_range(3, ~0U, 0);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return std::unique_ptr<ServedProcess>(new ServedProcess(pid));
}

ServedProcess::~ServedProcess() { Stop(SIGKILL); }

void ServedProcess::Stop(int signal) {
  if (reaped_) return;
  ::kill(pid_, signal);
  Wait();
}

int ServedProcess::Wait() {
  if (reaped_) return -1;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool ServedProcess::Running() {
  if (reaped_) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) reaped_ = true;
  return !reaped_;
}

int64_t ServedProcess::PeakRssBytes() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6)) * 1024;
    }
  }
  return 0;
}

Result<std::unique_ptr<api::SocketClient>> WaitReady(
    ServedProcess* process, const std::string& socket,
    api::WireProtocol wire, double timeout_s, api::StatsResult* stats) {
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(timeout_s * kSeconds);
  while (NowNs() < deadline) {
    if (!process->Running()) {
      return Status::Internal("wot_served exited during boot");
    }
    Result<std::unique_ptr<api::SocketClient>> client =
        api::SocketClient::Connect(socket, wire);
    if (client.ok()) {
      Result<api::StatsResult> answer = CallFor<api::StatsResult>(
          client.ValueOrDie().get(), api::StatsRequest{});
      if (answer.ok()) {
        *stats = answer.ValueOrDie();
        return std::move(client).ValueOrDie();
      }
    }
    ::usleep(1000);
  }
  return Status::Internal("wot_served did not answer within " +
                          std::to_string(timeout_s) + " s");
}

void CallRecorded(api::SocketClient* client, const Op& op, Phase phase,
                  uint64_t floor, OpRecords* records) {
  OpRecord record;
  record.op = op;
  record.phase = phase;
  record.floor = floor;
  record.due_ns = record.sent_ns = NowNs();
  Result<api::Response> response =
      client->Call(MakeRequest(op, static_cast<int64_t>(records->size()) + 1));
  if (response.ok()) RecordAnswer(response.ValueOrDie(), NowNs(), &record);
  records->push_back(record);
}

Traffic::~Traffic() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status Traffic::Connect(const std::string& socket) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  read_conns_ = static_cast<size_t>(spec_.read_connections);
  // A tail writer reuses the first read connection once reads are done.
  const size_t total =
      read_conns_ + (spec_.writer == WriterMode::kTail ? 0 : 1);
  writer_conn_ = spec_.writer == WriterMode::kTail ? 0 : read_conns_;
  conns_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    Conn& conn = conns_[i];
    WOT_ASSIGN_OR_RETURN(conn.fd, api::ConnectUnixSocket(socket));
    WOT_RETURN_IF_ERROR(api::SetNonBlocking(conn.fd));
    if (spec_.wire == api::WireProtocol::kBinary) {
      conn.frames =
          std::make_unique<api::BinaryFrameAssembler>(64 * 1024 * 1024);
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = i;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &event) != 0) {
      return Status::IOError(std::string("epoll_ctl: ") +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

void Traffic::Enqueue(size_t index, const Op& op, Phase phase, int64_t due,
                      int64_t now) {
  Conn& conn = conns_[index];
  const size_t id = records_->size();
  OpRecord record;
  record.op = op;
  record.phase = phase;
  record.due_ns = due;
  record.sent_ns = now;
  if (IsRead(op.kind)) {
    // Causal floor: never older than what this connection already saw,
    // nor than a commit acknowledged before the read was sent.
    record.floor = std::max(conn.max_seen, acked_epoch_);
  }
  records_->push_back(record);
  if (conn.dead) return;
  const api::Request request = MakeRequest(op, static_cast<int64_t>(id) + 1);
  if (spec_.wire == api::WireProtocol::kBinary) {
    conn.out += api::EncodeRequestBinary(request);
  } else {
    conn.out += api::EncodeRequest(request);
    conn.out += '\n';
  }
  conn.inflight.push_back(id);
}

void Traffic::Flush(size_t index) {
  Conn& conn = conns_[index];
  while (!conn.dead && conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_out) {
        epoll_event event{};
        event.events = EPOLLIN | EPOLLOUT;
        event.data.u64 = index;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
        conn.want_out = true;
      }
      return;
    }
    FailConn(index);
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.want_out && !conn.dead) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = index;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
    conn.want_out = false;
  }
}

void Traffic::FailConn(size_t index) {
  Conn& conn = conns_[index];
  if (conn.dead) return;
  conn.dead = true;
  conn.inflight.clear();  // never answered: their records count as failed
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
}

void Traffic::Receive(size_t index) {
  Conn& conn = conns_[index];
  char buffer[65536];
  while (!conn.dead) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) {
      // Answers are timed when their bytes arrive, before the generator
      // spends time decoding any of them.
      const int64_t now = NowNs();
      const std::string_view bytes(buffer, static_cast<size_t>(n));
      if (conn.frames != nullptr) {
        conn.frames->Append(bytes);
        while (std::optional<std::string> frame = conn.frames->NextFrame()) {
          OnFrame(index, *frame, now);
        }
        if (conn.frames->faulted()) FailConn(index);
      } else {
        conn.in.append(bytes);
        size_t start = 0;
        for (size_t end = conn.in.find('\n'); end != std::string::npos;
             end = conn.in.find('\n', start)) {
          OnFrame(index, std::string_view(conn.in).substr(start, end - start),
                  now);
          start = end + 1;
        }
        conn.in.erase(0, start);
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    FailConn(index);  // EOF or error: the server dropped us
  }
}

void Traffic::OnFrame(size_t index, std::string_view frame, int64_t now) {
  Conn& conn = conns_[index];
  if (conn.inflight.empty()) {
    FailConn(index);  // an answer nobody asked for
    return;
  }
  const size_t id = conn.inflight.front();
  conn.inflight.pop_front();
  OpRecord& record = (*records_)[id];
  api::Response response;
  const api::ApiStatus decoded =
      conn.frames != nullptr ? api::DecodeResponseBinary(frame, &response)
                             : api::DecodeResponse(frame, &response);
  if (!decoded.ok() || response.id != static_cast<int64_t>(id) + 1) {
    record.answered = true;
    record.done_ns = now;
    record.wrong = true;
  } else {
    RecordAnswer(response, now, &record);
  }
  if (record.ok && IsRead(record.op.kind)) {
    conn.max_seen = std::max(conn.max_seen, record.version);
  }
  if (record.ok && record.op.kind == OpKind::kCommit) {
    acked_epoch_ = std::max(acked_epoch_, record.version);
  }
  if (index == writer_conn_ && !IsRead(record.op.kind)) last_ack_ = now;
}

size_t Traffic::ReadInflight() const {
  size_t total = 0;
  for (size_t i = 0; i < read_conns_; ++i) total += conns_[i].inflight.size();
  return total;
}

int64_t Traffic::PumpWriter(int64_t now) {
  Conn& conn = conns_[writer_conn_];
  if (writer_done_) return INT64_MAX;
  if (conn.dead) {
    writer_done_ = true;
    return INT64_MAX;
  }
  const bool writer_busy =
      std::any_of(conn.inflight.begin(), conn.inflight.end(), [&](size_t id) {
        return !IsRead((*records_)[id].op.kind);
      });
  if (writer_busy) return INT64_MAX;
  if (cycle_pos_ == cycle_ops_.size()) {
    int64_t due = 0;
    switch (spec_.writer) {
      case WriterMode::kPeriodic:
        due = t0_ + cycle_ * static_cast<int64_t>(spec_.cycle_period_ms *
                                                  kMillis);
        if (due >= read_end_) {
          writer_done_ = true;
          return INT64_MAX;
        }
        break;
      case WriterMode::kTail:
        if (cycle_ == cycles_) {
          writer_done_ = true;
          return INT64_MAX;
        }
        if (now < read_end_ || ReadInflight() > 0) return INT64_MAX;
        due = cycle_ == 0 ? now : last_ack_;
        break;
    }
    if (due > now) return due;
    cycle_ops_ = gen_->NextCycle();
    cycle_pos_ = 0;
    cycle_due_ = due;
    ++cycle_;
  }
  const int64_t due = cycle_pos_ == 0 ? cycle_due_ : last_ack_;
  Phase phase = Phase::kMeasure;
  if (spec_.writer == WriterMode::kTail) {
    phase = Phase::kTail;
  } else if (due < measure_start_) {
    phase = Phase::kWarmup;
  }
  writes_->push_back(records_->size());
  Enqueue(writer_conn_, cycle_ops_[cycle_pos_++], phase, due, now);
  return INT64_MAX;
}

Status Traffic::Run(const Plan& plan) {
  cycles_ = plan.cycles;
  t0_ = NowNs() + 10 * kMillis;
  measure_start_ = t0_ + static_cast<int64_t>(plan.warmup_s * kSeconds);
  measure_end_ =
      measure_start_ + static_cast<int64_t>(plan.measure_s * kSeconds);
  read_end_ = measure_end_;
  const double mean_gap_ns = kSeconds / spec_.read_qps;
  double gap = 0;
  Op next_read = gen_->NextRead(&gap);
  int64_t next_read_due = t0_ + static_cast<int64_t>(gap * mean_gap_ns);
  bool measure_started = false;
  bool measure_ended = false;
  size_t round_robin = 0;
  epoll_event events[16];
  while (true) {
    int64_t now = NowNs();
    if (!measure_started && now >= measure_start_) {
      measure_started = true;
      if (plan.on_measure_start) plan.on_measure_start();
      now = NowNs();
    }
    while (next_read_due < read_end_ && next_read_due <= now) {
      const Phase phase =
          next_read_due < measure_start_ ? Phase::kWarmup : Phase::kMeasure;
      Enqueue(round_robin++ % read_conns_, next_read, phase, next_read_due,
              now);
      next_read = gen_->NextRead(&gap);
      next_read_due += static_cast<int64_t>(gap * mean_gap_ns);
    }
    const int64_t writer_next = PumpWriter(now);
    if (measure_started && !measure_ended && now >= measure_end_) {
      measure_ended = true;
      if (plan.on_measure_end) plan.on_measure_end();
    }
    int64_t inflight = 0;
    int64_t oldest_due = INT64_MAX;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i].out.empty()) Flush(i);
      inflight += static_cast<int64_t>(conns_[i].inflight.size());
      if (!conns_[i].inflight.empty()) {
        oldest_due = std::min(
            oldest_due, (*records_)[conns_[i].inflight.front()].due_ns);
      }
    }
    outstanding_max_ = std::max(outstanding_max_, inflight);
    const bool reads_done = next_read_due >= read_end_;
    if (reads_done && writer_done_ && inflight == 0) break;
    if (oldest_due != INT64_MAX && now - oldest_due > kHungNs) {
      for (size_t i = 0; i < conns_.size(); ++i) FailConn(i);
      break;
    }
    int64_t next_due = writer_next;
    if (!reads_done) next_due = std::min(next_due, next_read_due);
    if (!measure_started) next_due = std::min(next_due, measure_start_);
    if (!measure_ended) next_due = std::min(next_due, measure_end_);
    const int64_t wait = std::clamp<int64_t>(next_due - NowNs(), 0,
                                             50 * kMillis);
    timespec timeout{};
    timeout.tv_sec = wait / kSeconds;
    timeout.tv_nsec = wait % kSeconds;
    const int ready = ::epoll_pwait2(epoll_fd_, events, 16, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      return Status::IOError(std::string("epoll_pwait2: ") +
                             std::strerror(errno));
    }
    for (int i = 0; i < ready; ++i) {
      const size_t index = static_cast<size_t>(events[i].data.u64);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Receive(index);
      if (events[i].events & EPOLLOUT) Flush(index);
    }
  }
  if (!measure_ended) {
    measure_end_ = std::min(measure_end_, NowNs());
    if (plan.on_measure_end) plan.on_measure_end();
  }
  return Status::OK();
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code error;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, error);
       !error && it != std::filesystem::recursive_directory_iterator();
       it.increment(error)) {
    if (it->is_regular_file(error)) {
      total += static_cast<int64_t>(it->file_size(error));
    }
  }
  return total;
}

}  // namespace e2e
}  // namespace wot
