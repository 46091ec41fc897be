// Unit tests for the telemetry layer's bucket math, instruments and
// registry semantics. The bucket scheme is load-bearing for every
// latency number the server reports, so its invariants — identity
// range, round-trip, monotonicity, <= 25% relative error — are pinned
// here exhaustively rather than sampled.
#include "wot/telemetry/metric_registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace wot {
namespace telemetry {
namespace {

TEST(BucketMathTest, IdentityRangeIsExact) {
  for (int64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), static_cast<size_t>(v));
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<size_t>(v)),
              v);
  }
}

TEST(BucketMathTest, NegativesClampToBucketZero) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(-1), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(INT64_MIN), 0u);
}

TEST(BucketMathTest, LowerBoundRoundTripsToOwnBucket) {
  for (size_t b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(
                  LatencyHistogram::BucketLowerBound(b)),
              b)
        << "bucket " << b;
  }
}

TEST(BucketMathTest, BoundariesAreStrictlyIncreasingAndTight) {
  for (size_t b = 0; b + 1 < LatencyHistogram::kNumBuckets; ++b) {
    const int64_t lo = LatencyHistogram::BucketLowerBound(b);
    const int64_t hi = LatencyHistogram::BucketUpperBound(b);
    ASSERT_LT(lo, hi) << "bucket " << b;
    // The last value of bucket b still maps to b; the first value of
    // b+1 maps to b+1 — no value falls between buckets.
    EXPECT_EQ(LatencyHistogram::BucketIndex(hi - 1), b);
    EXPECT_EQ(LatencyHistogram::BucketIndex(hi), b + 1);
  }
}

TEST(BucketMathTest, RelativeErrorStaysUnderTwentyFivePercent) {
  // Bucket width / lower bound <= 1/4 for every non-identity bucket.
  for (size_t b = 8; b + 1 < LatencyHistogram::kNumBuckets; ++b) {
    const double lo =
        static_cast<double>(LatencyHistogram::BucketLowerBound(b));
    const double hi =
        static_cast<double>(LatencyHistogram::BucketUpperBound(b));
    EXPECT_LE((hi - lo) / lo, 0.25) << "bucket " << b;
  }
}

TEST(BucketMathTest, TopBucketCoversInt64Range) {
  EXPECT_EQ(LatencyHistogram::BucketIndex(INT64_MAX),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(CounterTest, SumsAcrossIncrements) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
}

TEST(GaugeTest, SetAndAddCompose) {
  Gauge g;
  g.Set(100);
  g.Add(-30);
  g.Add(5);
  EXPECT_EQ(g.Value(), 75);
  g.Set(0);
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, SnapshotCountsSumAndExtrema) {
  LatencyHistogram h;
  for (int64_t v : {0, 1, 7, 8, 100, 1000, 1000000}) {
    h.Record(v);
  }
  HistogramSnapshot snap = h.Snapshot("t");
  EXPECT_EQ(snap.name, "t");
  EXPECT_EQ(snap.count, 7);
  EXPECT_EQ(snap.sum, 0 + 1 + 7 + 8 + 100 + 1000 + 1000000);
  ASSERT_EQ(snap.buckets.size(), LatencyHistogram::kNumBuckets);
  EXPECT_EQ(snap.ApproxMin(), 0);
  // ApproxMax is the lower bound of the bucket holding 1000000.
  const int64_t max_lb = LatencyHistogram::BucketLowerBound(
      LatencyHistogram::BucketIndex(1000000));
  EXPECT_EQ(snap.ApproxMax(), max_lb);
  EXPECT_LE(max_lb, 1000000);
}

TEST(HistogramTest, EmptySnapshotQuantilesAreZero) {
  LatencyHistogram h;
  HistogramSnapshot snap = h.Snapshot("empty");
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.ApproxMin(), 0);
  EXPECT_EQ(snap.ApproxMax(), 0);
}

TEST(HistogramTest, QuantilesAreSaneOnUniformStream) {
  LatencyHistogram h;
  for (int64_t v = 1; v <= 10000; ++v) {
    h.Record(v);
  }
  HistogramSnapshot snap = h.Snapshot("uniform");
  const double p50 = snap.Quantile(0.50);
  const double p90 = snap.Quantile(0.90);
  const double p99 = snap.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Within bucket resolution of the true quantiles.
  EXPECT_NEAR(p50, 5000.0, 5000.0 * 0.25);
  EXPECT_NEAR(p99, 9900.0, 9900.0 * 0.25);
}

TEST(HistogramTest, SingleValueQuantileLandsInItsBucket) {
  LatencyHistogram h;
  h.Record(777);
  HistogramSnapshot snap = h.Snapshot("one");
  const size_t b = LatencyHistogram::BucketIndex(777);
  EXPECT_GE(snap.Quantile(0.5),
            static_cast<double>(LatencyHistogram::BucketLowerBound(b)));
  EXPECT_LE(snap.Quantile(0.5),
            static_cast<double>(LatencyHistogram::BucketUpperBound(b)));
}

TEST(HistogramSnapshotTest, MergeAddsCountsSumsAndBuckets) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  a.Record(20);
  b.Record(30);
  HistogramSnapshot sa = a.Snapshot("x");
  HistogramSnapshot sb = b.Snapshot("x");
  sa.MergeFrom(sb);
  EXPECT_EQ(sa.count, 3);
  EXPECT_EQ(sa.sum, 60);
  int64_t total = 0;
  for (int64_t c : sa.buckets) total += c;
  EXPECT_EQ(total, 3);
}

TEST(HistogramSnapshotTest, MergeSaturatesSumAtInt64Max) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  HistogramSnapshot a;
  a.buckets.assign(LatencyHistogram::kNumBuckets, 0);
  a.count = 1;
  a.sum = kMax - 5;
  HistogramSnapshot b = a;
  b.sum = kMax - 7;
  a.MergeFrom(b);
  EXPECT_EQ(a.count, 2);
  EXPECT_EQ(a.sum, kMax);
  // A pinned sum stays pinned.
  a.MergeFrom(b);
  EXPECT_EQ(a.sum, kMax);
}

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  MetricRegistry registry;
  Counter* c1 = registry.counter("requests");
  Counter* c2 = registry.counter("requests");
  EXPECT_EQ(c1, c2);
  Gauge* g1 = registry.gauge("depth");
  EXPECT_EQ(g1, registry.gauge("depth"));
  LatencyHistogram* h1 = registry.histogram("lat_ns");
  EXPECT_EQ(h1, registry.histogram("lat_ns"));
  // Distinct names are distinct instruments even across kinds.
  EXPECT_NE(registry.counter("other"), c1);
}

TEST(RegistryTest, ScrapeIsSortedAndComplete) {
  MetricRegistry registry;
  registry.counter("b.count")->Increment(2);
  registry.counter("a.count")->Increment(1);
  registry.gauge("z.level")->Set(-5);
  registry.gauge("a.level")->Set(7);
  registry.histogram("m.lat_ns")->Record(123);
  registry.histogram("a.lat_ns")->Record(456);

  MetricsSnapshot snap = registry.Scrape();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[0].second, 1);
  EXPECT_EQ(snap.counters[1].first, "b.count");
  EXPECT_EQ(snap.counters[1].second, 2);
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "a.level");
  EXPECT_EQ(snap.gauges[0].second, 7);
  EXPECT_EQ(snap.gauges[1].first, "z.level");
  EXPECT_EQ(snap.gauges[1].second, -5);
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "a.lat_ns");
  EXPECT_EQ(snap.histograms[0].count, 1);
  EXPECT_EQ(snap.histograms[1].name, "m.lat_ns");
}

TEST(SnapshotMergeTest, UpsertSumsSameNamesAndInsertsNew) {
  MetricRegistry r1;
  MetricRegistry r2;
  r1.counter("shared")->Increment(10);
  r1.counter("only1")->Increment(1);
  r2.counter("shared")->Increment(5);
  r2.counter("only2")->Increment(2);
  r1.gauge("g")->Set(3);
  r2.gauge("g")->Set(4);
  r1.histogram("h")->Record(100);
  r2.histogram("h")->Record(200);
  r2.histogram("h2")->Record(1);

  MetricsSnapshot merged = r1.Scrape();
  merged.MergeFrom(r2.Scrape());

  ASSERT_EQ(merged.counters.size(), 3u);
  EXPECT_EQ(merged.counters[0].first, "only1");
  EXPECT_EQ(merged.counters[1].first, "only2");
  EXPECT_EQ(merged.counters[2].first, "shared");
  EXPECT_EQ(merged.counters[2].second, 15);
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].second, 7);  // gauges sum on merge
  ASSERT_EQ(merged.histograms.size(), 2u);
  EXPECT_EQ(merged.histograms[0].name, "h");
  EXPECT_EQ(merged.histograms[0].count, 2);
  EXPECT_EQ(merged.histograms[0].sum, 300);
  EXPECT_EQ(merged.histograms[1].name, "h2");
  EXPECT_EQ(merged.histograms[1].count, 1);
}

}  // namespace
}  // namespace telemetry
}  // namespace wot
