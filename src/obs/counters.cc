#include "obs/counters.h"

#include <algorithm>
#include <cmath>

namespace incognito {
namespace obs {

CounterRegistry& CounterRegistry::Global() {
  static CounterRegistry* registry = new CounterRegistry();
  return *registry;
}

Counter* CounterRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    std::string key(name);
    it = counters_.emplace(key, std::unique_ptr<Counter>(new Counter(key)))
             .first;
  }
  return it->second.get();
}

Gauge* CounterRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    std::string key(name);
    it = gauges_.emplace(key, std::unique_ptr<Gauge>(new Gauge(key))).first;
  }
  return it->second.get();
}

Histogram* CounterRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    std::string key(name);
    it = histograms_
             .emplace(key, std::unique_ptr<Histogram>(new Histogram(key)))
             .first;
  }
  return it->second.get();
}

std::map<std::string, int64_t> CounterRegistry::CounterSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> out;
  for (const auto& [name, counter] : counters_) {
    out[name] = counter->value();
  }
  return out;
}

std::map<std::string, double> CounterRegistry::GaugeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, gauge] : gauges_) {
    out[name] = gauge->value();
  }
  return out;
}

std::map<std::string, HistogramSnapshot> CounterRegistry::HistogramSnapshots()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, hist] : histograms_) {
    out[name] = hist->Snapshot();
  }
  return out;
}

void CounterRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    (void)name;
    counter->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, gauge] : gauges_) {
    (void)name;
    gauge->Set(0);
  }
  for (auto& [name, hist] : histograms_) {
    (void)name;
    hist->count_.store(0, std::memory_order_relaxed);
    hist->sum_ns_.store(0, std::memory_order_relaxed);
    hist->max_ns_.store(0, std::memory_order_relaxed);
    for (auto& bucket : hist->buckets_) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  snap.max_ns = max_ns_.load(std::memory_order_relaxed);
  for (int b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return snap;
}

double HistogramSnapshot::PercentileSeconds(double p) const {
  if (count <= 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // The 1-based rank of the percentile observation, rounded up so p=100
  // lands on the last observation.
  int64_t rank =
      static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= rank) {
      // Interpolate linearly inside [2^(b-1), 2^b) — exact to within one
      // log bucket either way.
      double lo = b == 0 ? 0.0 : static_cast<double>(int64_t{1} << (b - 1));
      double hi = static_cast<double>(
          b >= 63 ? max_ns : (int64_t{1} << b));
      double frac = static_cast<double>(rank - seen) /
                    static_cast<double>(buckets[b]);
      double ns = lo + (hi - lo) * frac;
      if (ns > static_cast<double>(max_ns)) ns = static_cast<double>(max_ns);
      return ns * 1e-9;
    }
    seen += buckets[b];
  }
  return MaxSeconds();
}

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& before) const {
  HistogramSnapshot delta;
  delta.count = count - before.count;
  delta.sum_ns = sum_ns - before.sum_ns;
  int top = -1;  // the delta's highest non-empty bucket
  for (int b = 0; b < kNumBuckets; ++b) {
    delta.buckets[b] = buckets[b] - before.buckets[b];
    if (delta.buckets[b] != 0) top = b;
  }
  if (max_ns > before.max_ns) {
    delta.max_ns = max_ns;  // the interval raised the max: exact
  } else if (top >= 0) {
    // Bucket b holds [2^(b-1), 2^b) ns, so its upper edge bounds the
    // interval's max to within 2x.
    delta.max_ns = top >= 63 ? max_ns
                             : std::min(max_ns, (int64_t{1} << top) - 1);
  }
  return delta;
}

MetricsSnapshot MetricsSnapshot::Take(const CounterRegistry& registry) {
  MetricsSnapshot snapshot;
  snapshot.counters = registry.CounterSnapshot();
  snapshot.gauges = registry.GaugeSnapshot();
  snapshot.histograms = registry.HistogramSnapshots();
  return snapshot;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& before) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = before.counters.find(name);
    int64_t d = value - (it == before.counters.end() ? 0 : it->second);
    if (d != 0) delta.counters[name] = d;
  }
  for (const auto& [name, value] : gauges) {
    auto it = before.gauges.find(name);
    double d = value - (it == before.gauges.end() ? 0 : it->second);
    if (std::fabs(d) >= 1e-9) delta.gauges[name] = d;
  }
  for (const auto& [name, value] : histograms) {
    auto it = before.histograms.find(name);
    HistogramSnapshot d = it == before.histograms.end()
                              ? value
                              : value.DeltaSince(it->second);
    if (d.count != 0) delta.histograms[name] = d;
  }
  return delta;
}

}  // namespace obs
}  // namespace incognito
