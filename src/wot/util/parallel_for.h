// Data-parallel loop helper over an index range.
#ifndef WOT_UTIL_PARALLEL_FOR_H_
#define WOT_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace wot {

/// \brief Runs body(i) exactly once for every i in [0, count) on
/// \p num_threads workers (0 = hardware concurrency), the calling thread
/// among them. Each worker claims the next unclaimed index, lowest first, so
/// callers with uneven iterations should order the expensive ones first.
/// Blocks until all iterations complete. Falls back to a serial loop when
/// count or num_threads is 1. \p body must be safe to call concurrently
/// for distinct i.
void ParallelFor(size_t count, const std::function<void(size_t)>& body,
                 size_t num_threads = 0);

}  // namespace wot

#endif  // WOT_UTIL_PARALLEL_FOR_H_
