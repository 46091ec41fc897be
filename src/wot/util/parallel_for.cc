#include "wot/util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace wot {

void ParallelFor(size_t count, const std::function<void(size_t)>& body,
                 size_t num_threads) {
  if (count == 0) {
    return;
  }
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, count);
  if (num_threads <= 1) {
    for (size_t i = 0; i < count; ++i) {
      body(i);
    }
    return;
  }
  // Workers claim the next unclaimed index, so an expensive iteration
  // delays only the worker running it while the others drain the rest.
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < count; i = next++) {
      body(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  for (size_t t = 1; t < num_threads; ++t) {
    threads.emplace_back(worker);
  }
  worker();
  for (auto& th : threads) {
    th.join();
  }
}

}  // namespace wot
