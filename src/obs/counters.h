#ifndef INCOGNITO_OBS_COUNTERS_H_
#define INCOGNITO_OBS_COUNTERS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace incognito {
namespace obs {

/// A named monotonic counter. Increments are lock-free; pointers returned
/// by CounterRegistry::GetCounter stay valid for the registry's lifetime,
/// so call sites cache them (the INCOGNITO_COUNT macros do this with a
/// function-local static).
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class CounterRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// A named double-valued gauge. Supports both Set (last-write-wins) and
/// Add (accumulating, e.g. per-phase seconds).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class CounterRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<double> value_{0};
};

/// A point-in-time copy of one histogram's state. Percentiles are derived
/// on demand from the log-binned bucket counts (geometric interpolation
/// inside the crossing bucket), so two snapshots can be subtracted
/// bucket-wise and still yield meaningful per-run percentiles.
struct HistogramSnapshot {
  static constexpr int kNumBuckets = 64;

  int64_t count = 0;
  int64_t sum_ns = 0;
  int64_t max_ns = 0;
  std::array<int64_t, kNumBuckets> buckets{};

  /// The value (seconds) at percentile `p` in [0, 100]. Log-binning means
  /// the answer is exact to within one power-of-two bucket; the estimate is
  /// interpolated inside the bucket and clamped to the observed max.
  double PercentileSeconds(double p) const;
  double MeanSeconds() const {
    return count > 0 ? static_cast<double>(sum_ns) / count * 1e-9 : 0.0;
  }
  double MaxSeconds() const { return static_cast<double>(max_ns) * 1e-9; }
  double SumSeconds() const { return static_cast<double>(sum_ns) * 1e-9; }

  /// This snapshot minus `before`, bucket-wise. `max_ns` is the
  /// interval's own: exact when the interval raised the cumulative max,
  /// otherwise the smaller of that max and the upper edge of the delta's
  /// highest non-empty bucket — within 2x of the interval's true max.
  HistogramSnapshot DeltaSince(const HistogramSnapshot& before) const;
};

/// A named lock-free latency histogram with logarithmic (power-of-two
/// nanosecond) buckets: bucket 0 holds durations of < 1ns, bucket b holds
/// [2^(b-1), 2^b) ns. Recording is three relaxed atomic adds plus a CAS
/// max — cheap enough for per-task scheduler paths.
class Histogram {
 public:
  void RecordNanos(int64_t ns) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    buckets_[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
    int64_t max = max_ns_.load(std::memory_order_relaxed);
    while (ns > max && !max_ns_.compare_exchange_weak(
                           max, ns, std::memory_order_relaxed)) {
    }
  }
  void RecordSeconds(double seconds) {
    RecordNanos(static_cast<int64_t>(seconds * 1e9));
  }

  HistogramSnapshot Snapshot() const;
  const std::string& name() const { return name_; }

  static int BucketFor(int64_t ns) {
    if (ns <= 0) return 0;
    int bucket = 0;
    for (uint64_t v = static_cast<uint64_t>(ns); v != 0; v >>= 1) ++bucket;
    return bucket < HistogramSnapshot::kNumBuckets
               ? bucket
               : HistogramSnapshot::kNumBuckets - 1;
  }

 private:
  friend class CounterRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_ns_{0};
  std::atomic<int64_t> max_ns_{0};
  std::array<std::atomic<int64_t>, HistogramSnapshot::kNumBuckets> buckets_{};
};

/// Process-wide registry of named counters, gauges, and histograms.
/// Registration takes a mutex; reads and increments through the returned
/// handles are lock-free. Values are cumulative for the process — use
/// MetricsSnapshot deltas to isolate one run's contribution.
class CounterRegistry {
 public:
  /// The registry the instrumentation macros record into.
  static CounterRegistry& Global();

  /// Returns the counter/gauge/histogram named `name`, creating it on
  /// first use. The returned pointer is stable for the registry's
  /// lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  std::map<std::string, int64_t> CounterSnapshot() const;
  std::map<std::string, double> GaugeSnapshot() const;
  std::map<std::string, HistogramSnapshot> HistogramSnapshots() const;

  /// Zeroes every value. Handles stay valid.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// A point-in-time copy of every counter, gauge, and histogram; subtract
/// two snapshots to attribute costs to one measured region (the bench
/// harness does this per algorithm run).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  static MetricsSnapshot Take(
      const CounterRegistry& registry = CounterRegistry::Global());

  /// Returns this snapshot minus `before`, dropping entries whose delta is
  /// zero (gauge deltas below 1ns of seconds are treated as zero;
  /// histograms with a zero count delta are dropped).
  MetricsSnapshot DeltaSince(const MetricsSnapshot& before) const;
};

/// RAII accumulator: adds the scope's elapsed seconds to a gauge. Used via
/// INCOGNITO_PHASE_TIMER, which caches the gauge handle per call site.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Gauge* gauge)
      : gauge_(gauge), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhaseTimer() {
    gauge_->Add(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count());
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  Gauge* gauge_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII timer: records the scope's elapsed nanoseconds into a histogram.
/// Used via INCOGNITO_HIST_TIMER, which caches the handle per call site.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimer() {
    hist_->RecordNanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace incognito

#endif  // INCOGNITO_OBS_COUNTERS_H_
