// Scope guards for tests that fork a real server.
//
// An ASSERT_* returns from the test body early. Without a guard, a child
// forked before it keeps running after the test has failed, and a
// joinable std::thread destroyed on that path calls std::terminate.
#ifndef WOT_TESTS_TESTING_CHILD_PROCESS_H_
#define WOT_TESTS_TESTING_CHILD_PROCESS_H_

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <utility>

namespace wot {
namespace testing {

/// Owns one forked child: the destructor SIGKILLs and reaps it unless
/// Stop() already did.
class ChildProcess {
 public:
  explicit ChildProcess(pid_t pid) : pid_(pid) {}
  ~ChildProcess() { Stop(SIGKILL); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Sends \p signal, waits for the child to exit and returns its wait
  /// status (-1 when no child is owned any more).
  int Stop(int signal) {
    if (pid_ <= 0) return -1;
    kill(pid_, signal);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  pid_t pid_;
};

/// Runs \p fn when the scope ends, on every exit path.
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  Fn fn_;
};

}  // namespace testing
}  // namespace wot

#endif  // WOT_TESTS_TESTING_CHILD_PROCESS_H_
