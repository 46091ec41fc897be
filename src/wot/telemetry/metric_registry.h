// Low-overhead serving telemetry: named counters, gauges and mergeable
// log-bucketed latency histograms behind one MetricRegistry.
//
// Hot-path contract: recording a sample is ONE relaxed fetch-add on a
// striped cache-line — no locks, no allocation, no branches beyond the
// bucket math. The registry mutex guards only metric *registration*
// (instrument sites resolve their Counter*/LatencyHistogram* once, at
// construction) and the name map walked by Scrape(); a scrape therefore
// never blocks writers, it just sums their atomics.
//
// Histogram shape: 248 fixed exponential buckets — identity for values
// 0..7, then four sub-buckets per power-of-two octave, giving <= 25%
// relative error over the full int64 range. Fixed boundaries make
// histograms MERGEABLE: summing two histograms' buckets element-wise is
// exactly the histogram of the concatenated streams (property-tested),
// which is how per-thread stripes, per-shard registries and per-layer
// sources all collapse into one scrape.
//
// Compiling with -DWOT_TELEMETRY_OFF turns every mutation (Increment,
// Set, Record, WOT_TIMED) into a no-op without changing any type or
// call site — bench/micro_service_off builds the whole serving stack
// that way to price the instrumentation (docs/observability.md).
#ifndef WOT_TELEMETRY_METRIC_REGISTRY_H_
#define WOT_TELEMETRY_METRIC_REGISTRY_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wot/util/macros.h"
#include "wot/util/thread_annotations.h"

namespace wot {
namespace telemetry {

/// Concurrent writers spread over this many cache-line-aligned stripes;
/// readers sum them. Power of two (the stripe pick is a mask).
inline constexpr size_t kStripes = 8;

/// \brief This thread's stripe. Threads are assigned round-robin on
/// first use, so a dispatch pool of N threads collides only when
/// N > kStripes.
inline size_t StripeIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return mine;
}

/// \brief A monotonically increasing sum. Increment is one relaxed
/// fetch-add on this thread's stripe; Value sums the stripes (so a read
/// concurrent with writes is a plausible point-in-time total, never a
/// torn one).
class Counter {
 public:
  Counter() = default;
  WOT_DISALLOW_COPY_AND_MOVE(Counter);

  void Increment(int64_t delta = 1) {
#ifndef WOT_TELEMETRY_OFF
    stripes_[StripeIndex()].value.fetch_add(delta,
                                            std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> value{0};
  };
  Stripe stripes_[kStripes];
};

/// \brief A point-in-time level (queue depth, buffered bytes). Set and
/// Add are single relaxed atomics — gauges are written far less often
/// than counters, so they are not striped (Set could not be).
class Gauge {
 public:
  Gauge() = default;
  WOT_DISALLOW_COPY_AND_MOVE(Gauge);

  void Set(int64_t value) {
#ifndef WOT_TELEMETRY_OFF
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  void Add(int64_t delta) {
#ifndef WOT_TELEMETRY_OFF
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief One histogram's merged state at scrape time: plain data,
/// mergeable, quantile-queryable. `buckets` always has
/// LatencyHistogram::kNumBuckets entries.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  /// Saturates at INT64_MAX: recording, folding stripes and merging
  /// snapshots all pin an overflowing sum there.
  int64_t sum = 0;
  std::vector<int64_t> buckets;

  /// \brief Element-wise bucket sum; requires equal bucket counts.
  void MergeFrom(const HistogramSnapshot& other);

  /// \brief Estimates the q-quantile (q in [0,1]) by walking the
  /// cumulative bucket counts and interpolating linearly inside the
  /// covering bucket. Returns 0 on an empty histogram. Monotone in q.
  double Quantile(double q) const;

  /// Lower bound of the first (last) non-empty bucket — the recorded
  /// extrema up to bucket resolution. 0 when empty.
  int64_t ApproxMin() const;
  int64_t ApproxMax() const;
};

/// \brief A fixed-boundary exponential-bucket histogram of nonnegative
/// int64 samples (latencies in nanoseconds by convention; any counted
/// quantity works). Record is one relaxed fetch-add per sample on this
/// thread's stripe; Snapshot merges the stripes.
class LatencyHistogram {
 public:
  /// Buckets 0..7 are identity (value == bucket); values >= 8 get four
  /// sub-buckets per power-of-two octave up to 2^62.
  static constexpr size_t kNumBuckets = 248;

  LatencyHistogram() = default;
  WOT_DISALLOW_COPY_AND_MOVE(LatencyHistogram);

  /// \brief Bucket covering \p value (negatives clamp to bucket 0).
  static size_t BucketIndex(int64_t value) {
    if (value < 8) {
      return value < 0 ? 0 : static_cast<size_t>(value);
    }
    const uint64_t v = static_cast<uint64_t>(value);
    const int msb = 63 - std::countl_zero(v);
    const size_t sub = static_cast<size_t>((v >> (msb - 2)) & 3);
    return 8 + static_cast<size_t>(msb - 3) * 4 + sub;
  }

  /// \brief Smallest value that lands in \p bucket (< kNumBuckets).
  static int64_t BucketLowerBound(size_t bucket) {
    if (bucket < 8) return static_cast<int64_t>(bucket);
    const size_t octave = (bucket - 8) / 4;
    const size_t sub = (bucket - 8) % 4;
    const int shift = static_cast<int>(octave) + 1;  // msb - 2
    return static_cast<int64_t>(4 + sub) << shift;
  }

  /// \brief One past the largest value in \p bucket. The top bucket is
  /// open-ended; its "upper bound" caps at INT64_MAX (doubling its
  /// lower bound would overflow).
  static int64_t BucketUpperBound(size_t bucket) {
    if (bucket + 1 < kNumBuckets) return BucketLowerBound(bucket + 1);
    return INT64_MAX;
  }

  void Record(int64_t value) {
#ifndef WOT_TELEMETRY_OFF
    Stripe& stripe = stripes_[StripeIndex()];
    stripe.counts[BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    const int64_t add = value < 0 ? 0 : value;
    const int64_t before =
        stripe.sum.fetch_add(add, std::memory_order_relaxed);
    int64_t after;
    if (__builtin_add_overflow(before, add, &after)) {
      // The add wrapped: pin the stripe at INT64_MAX, as the snapshot's
      // fold does, so one stream and its merged shards agree.
      stripe.sum.store(INT64_MAX, std::memory_order_relaxed);
    }
#else
    (void)value;
#endif
  }

  /// \brief Merges the stripes into plain data. Safe (and meaningful)
  /// concurrent with Record: every sample is counted exactly once or
  /// not yet.
  HistogramSnapshot Snapshot(std::string name) const;

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> counts[kNumBuckets]{};
  };
  Stripe stripes_[kStripes];
};

/// \brief Everything one registry (or a merge of several) knows at one
/// instant. Vectors are sorted by name, so equal workloads scrape to
/// equal snapshots.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// \brief Folds \p other in: same-name counters/gauges/buckets sum,
  /// new names insert (order stays sorted).
  void MergeFrom(const MetricsSnapshot& other);
};

/// \brief Named metrics, registered once and recorded into forever.
/// counter()/gauge()/histogram() get-or-create under the registry mutex
/// and return a pointer that stays valid for the registry's lifetime —
/// instrument sites resolve at construction and the request path never
/// sees the lock. Scrape() reads under the same mutex but only contends
/// with registration, never with recording.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  WOT_DISALLOW_COPY_AND_MOVE(MetricRegistry);

  Counter* counter(std::string_view name) WOT_EXCLUDES(mu_);
  Gauge* gauge(std::string_view name) WOT_EXCLUDES(mu_);
  LatencyHistogram* histogram(std::string_view name) WOT_EXCLUDES(mu_);

  MetricsSnapshot Scrape() const WOT_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      WOT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      WOT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_ WOT_GUARDED_BY(mu_);
};

}  // namespace telemetry
}  // namespace wot

#endif  // WOT_TELEMETRY_METRIC_REGISTRY_H_
