#include "wot/telemetry/metric_registry.h"

#include <algorithm>
#include <limits>

#include "wot/util/check.h"

namespace wot {
namespace telemetry {

namespace {

// a + b, saturated at INT64_MAX: a histogram's sum of heavy-tailed samples
// can outgrow int64_t, and a pinned sum beats a wrapped one.
int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t out;
  return __builtin_add_overflow(a, b, &out)
             ? std::numeric_limits<int64_t>::max()
             : out;
}

}  // namespace

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  WOT_CHECK_EQ(buckets.size(), other.buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  count += other.count;
  sum = SaturatingAdd(sum, other.sum);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The sample with (0-based) rank floor(q * (count - 1)); interpolate
  // linearly across its bucket's value range.
  const double target = q * static_cast<double>(count - 1);
  int64_t before = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const int64_t after = before + buckets[b];
    if (target < static_cast<double>(after) || b + 1 == buckets.size()) {
      const double lower =
          static_cast<double>(LatencyHistogram::BucketLowerBound(b));
      const double upper =
          static_cast<double>(LatencyHistogram::BucketUpperBound(b));
      const double within =
          (target - static_cast<double>(before)) /
          static_cast<double>(buckets[b]);
      return lower + std::clamp(within, 0.0, 1.0) * (upper - lower);
    }
    before = after;
  }
  return 0.0;
}

int64_t HistogramSnapshot::ApproxMin() const {
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] > 0) return LatencyHistogram::BucketLowerBound(b);
  }
  return 0;
}

int64_t HistogramSnapshot::ApproxMax() const {
  for (size_t b = buckets.size(); b > 0; --b) {
    if (buckets[b - 1] > 0) {
      return LatencyHistogram::BucketLowerBound(b - 1);
    }
  }
  return 0;
}

HistogramSnapshot LatencyHistogram::Snapshot(std::string name) const {
  HistogramSnapshot snapshot;
  snapshot.name = std::move(name);
  snapshot.buckets.assign(kNumBuckets, 0);
  for (const Stripe& stripe : stripes_) {
    snapshot.sum = SaturatingAdd(snapshot.sum,
                                 stripe.sum.load(std::memory_order_relaxed));
    for (size_t b = 0; b < kNumBuckets; ++b) {
      snapshot.buckets[b] +=
          stripe.counts[b].load(std::memory_order_relaxed);
    }
  }
  for (int64_t bucket : snapshot.buckets) {
    snapshot.count += bucket;
  }
  return snapshot;
}

namespace {

// Sorted-vector upsert shared by the counter/gauge merge paths.
void MergeValues(std::vector<std::pair<std::string, int64_t>>* into,
                 const std::vector<std::pair<std::string, int64_t>>& from) {
  for (const auto& [name, value] : from) {
    auto it = std::lower_bound(
        into->begin(), into->end(), name,
        [](const auto& entry, const std::string& key) {
          return entry.first < key;
        });
    if (it != into->end() && it->first == name) {
      it->second += value;
    } else {
      into->insert(it, {name, value});
    }
  }
}

}  // namespace

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  MergeValues(&counters, other.counters);
  MergeValues(&gauges, other.gauges);
  for (const HistogramSnapshot& theirs : other.histograms) {
    auto it = std::lower_bound(
        histograms.begin(), histograms.end(), theirs.name,
        [](const HistogramSnapshot& entry, const std::string& key) {
          return entry.name < key;
        });
    if (it != histograms.end() && it->name == theirs.name) {
      it->MergeFrom(theirs);
    } else {
      histograms.insert(it, theirs);
    }
  }
}

Counter* MetricRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricRegistry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

LatencyHistogram* MetricRegistry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<LatencyHistogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricRegistry::Scrape() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back(histogram->Snapshot(name));
  }
  return snapshot;
}

}  // namespace telemetry
}  // namespace wot
