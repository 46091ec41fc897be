#include "wot/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "wot/util/parallel_for.h"

namespace wot {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): destruction must still run everything queued.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SubmitReportsAcceptance) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.Submit([] {}));
  pool.Wait();
}

TEST(ThreadPoolTest, StopDrainsQueuedWorkBeforeReturning) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      counter.fetch_add(1);
    }));
  }
  pool.Stop();
  // "Stop returned" means every accepted task ran, even the ones still
  // queued when Stop was called.
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, SubmitAfterStopIsRejectedAndWaitDoesNotHang) {
  ThreadPool pool(2);
  pool.Stop();
  std::atomic<bool> ran{false};
  EXPECT_FALSE(pool.Submit([&ran] { ran = true; }));
  // Regression: a silently-queued post-stop task used to strand
  // in_flight_ > 0 with no worker left, wedging Wait() forever.
  pool.Wait();
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolTest, StopIsIdempotent) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Stop();
  pool.Stop();  // second call must return immediately, not re-join
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ConcurrentStopCallersAllObserveTheDrain) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&counter] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      counter.fetch_add(1);
    });
  }
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&pool, &counter] {
      pool.Stop();
      // Every Stop() caller, not just the one that joined the workers,
      // returns only after the queue fully drained.
      EXPECT_EQ(counter.load(), 32);
    });
  }
  for (auto& t : stoppers) t.join();
}

TEST(ThreadPoolTest, DestructionWhileWorkersBusyCompletesEveryTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        counter.fetch_add(1);
      });
    }
    // Workers are mid-task here; the destructor must let them finish.
  }
  EXPECT_EQ(counter.load(), 16);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, [&](size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, EveryIndexRunsOnceForAnyThreadCount) {
  constexpr size_t kCount = 37;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, kCount + 5}) {
    std::vector<std::atomic<int>> hits(kCount);
    ParallelFor(
        kCount,
        [&](size_t i) {
          // Uneven iterations: the early (expensive) ones keep their
          // workers busy while the others claim the rest.
          if (i < 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          hits[i].fetch_add(1);
        },
        threads);
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", threads "
                                   << threads;
    }
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(0, [&](size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelFor(10, [&](size_t i) { order.push_back(static_cast<int>(i)); },
              1);
  // Serial fallback preserves order.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int> counter{0};
  ParallelFor(3, [&](size_t) { counter.fetch_add(1); }, 16);
  EXPECT_EQ(counter.load(), 3);
}

}  // namespace
}  // namespace wot
