#ifndef INCOGNITO_BENCH_BENCH_UTIL_H_
#define INCOGNITO_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/binary_search.h"
#include "core/bottom_up.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "obs/counters.h"
#include "obs/json_util.h"

namespace incognito {
namespace bench {

/// Minimal --name=value flag parser shared by the bench binaries. Every
/// Get* call marks its flag as known; after reading all flags, call
/// CheckUnknown() so a typo like --quik aborts the run instead of
/// silently starting the full non-quick suite.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_[arg.substr(2)] = "true";
      } else {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  int64_t GetInt(const std::string& name, int64_t def) const {
    known_.insert(name);
    auto it = kv_.find(name);
    return it == kv_.end() ? def : atoll(it->second.c_str());
  }

  double GetDouble(const std::string& name, double def) const {
    known_.insert(name);
    auto it = kv_.find(name);
    if (it == kv_.end()) return def;
    double out = def;
    return ParseDouble(it->second, &out) ? out : def;
  }

  bool GetBool(const std::string& name, bool def) const {
    known_.insert(name);
    auto it = kv_.find(name);
    return it == kv_.end() ? def : it->second != "false" && it->second != "0";
  }

  std::string GetString(const std::string& name, std::string def) const {
    known_.insert(name);
    auto it = kv_.find(name);
    return it == kv_.end() ? def : it->second;
  }

  /// Flags that were passed but never consumed by a Get* call.
  std::vector<std::string> UnknownFlags() const {
    std::vector<std::string> unknown;
    for (const auto& [name, value] : kv_) {
      (void)value;
      if (known_.count(name) == 0) unknown.push_back(name);
    }
    return unknown;
  }

  /// Call once every flag has been read: reports unknown flags on stderr
  /// and returns false if any were passed.
  bool CheckUnknown() const {
    std::vector<std::string> unknown = UnknownFlags();
    for (const std::string& name : unknown) {
      fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
    }
    return unknown.empty();
  }

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> known_;
};

/// The six algorithms of the paper's Fig. 10 comparison.
enum class Algorithm {
  kBottomUpNoRollup,
  kBinarySearch,
  kBottomUpRollup,
  kBasicIncognito,
  kCubeIncognito,
  kSuperRootsIncognito,
};

inline const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBottomUpNoRollup:
      return "Bottom-Up (w/o rollup)";
    case Algorithm::kBinarySearch:
      return "Binary Search";
    case Algorithm::kBottomUpRollup:
      return "Bottom-Up (w/ rollup)";
    case Algorithm::kBasicIncognito:
      return "Basic Incognito";
    case Algorithm::kCubeIncognito:
      return "Cube Incognito";
    case Algorithm::kSuperRootsIncognito:
      return "Super-roots Incognito";
  }
  return "?";
}

inline const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm> kAll = {
      Algorithm::kBottomUpNoRollup,  Algorithm::kBinarySearch,
      Algorithm::kBottomUpRollup,    Algorithm::kBasicIncognito,
      Algorithm::kCubeIncognito,     Algorithm::kSuperRootsIncognito,
  };
  return kAll;
}

/// One benchmark measurement.
struct RunResult {
  double seconds = 0;
  AlgorithmStats stats;
  size_t solutions = 0;  ///< k-anonymous generalizations found (1 for BS)
  bool ok = false;
  /// Observability counter/gauge deltas attributable to this run (empty
  /// when the library was built with INCOGNITO_OBS_DISABLED).
  obs::MetricsSnapshot metrics;
};

/// Runs one algorithm on (table, qid, config) and reports wall-clock, the
/// algorithm's counters, and the global observability metrics the run
/// moved (per-phase seconds, scan/rollup counts, ...). The registry is
/// reset first, so each histogram's max in the delta is this run's own
/// rather than the process's running max. `batch_scans`
/// only affects the Incognito variants: false disables the scan-sharing
/// batched level evaluation (the --no-batch-scan ablation).
inline RunResult RunAlgorithm(Algorithm algorithm, const Table& table,
                              const QuasiIdentifier& qid,
                              const AnonymizationConfig& config,
                              bool batch_scans = true) {
  RunResult out;
  obs::CounterRegistry::Global().Reset();
  obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
  Stopwatch timer;
  switch (algorithm) {
    case Algorithm::kBottomUpNoRollup:
    case Algorithm::kBottomUpRollup: {
      BottomUpOptions opts;
      opts.use_rollup = algorithm == Algorithm::kBottomUpRollup;
      PartialResult<BottomUpResult> r = RunBottomUpBfs(table, qid, config, opts);
      if (!r.ok()) return out;
      out.stats = r->stats;
      out.solutions = r->anonymous_nodes.size();
      break;
    }
    case Algorithm::kBinarySearch: {
      PartialResult<BinarySearchResult> r =
          RunSamaratiBinarySearch(table, qid, config);
      if (!r.ok()) return out;
      out.stats = r->stats;
      out.solutions = r->found ? 1 : 0;
      break;
    }
    case Algorithm::kBasicIncognito:
    case Algorithm::kCubeIncognito:
    case Algorithm::kSuperRootsIncognito: {
      IncognitoOptions opts;
      opts.variant = algorithm == Algorithm::kCubeIncognito
                         ? IncognitoVariant::kCube
                     : algorithm == Algorithm::kSuperRootsIncognito
                         ? IncognitoVariant::kSuperRoots
                         : IncognitoVariant::kBasic;
      opts.batch_scans = batch_scans;
      PartialResult<IncognitoResult> r = RunIncognito(table, qid, config, opts);
      if (!r.ok()) return out;
      out.stats = r->stats;
      out.solutions = r->anonymous_nodes.size();
      break;
    }
  }
  out.seconds = timer.ElapsedSeconds();
  out.metrics = obs::MetricsSnapshot::Take().DeltaSince(before);
  out.ok = true;
  return out;
}

/// Accumulates measurement rows and writes one machine-readable
/// BENCH_<name>.json per bench run (the perf-trajectory format
/// docs/OBSERVABILITY.md documents). Enabled by --json[=FILE]; with a
/// bare --json the file is BENCH_<name>.json in the working directory.
class BenchReport {
 public:
  BenchReport(const Flags& flags, std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    path_ = flags.GetString("json", "");
    if (path_ == "true") path_ = "BENCH_" + bench_name_ + ".json";
  }

  bool enabled() const { return !path_.empty(); }

  /// Records one measurement. `metrics` may be empty for benches that do
  /// not route through RunAlgorithm.
  void Add(const std::string& database, int64_t k, size_t qid_size,
           const std::string& algorithm, double seconds, size_t solutions,
           const AlgorithmStats& stats, const obs::MetricsSnapshot& metrics) {
    if (!enabled()) return;
    Entry e;
    e.database = database;
    e.k = k;
    e.qid_size = qid_size;
    e.algorithm = algorithm;
    e.seconds = seconds;
    e.solutions = solutions;
    e.stats = stats;
    e.metrics = metrics;
    entries_.push_back(std::move(e));
  }

  void Add(const std::string& database, int64_t k, size_t qid_size,
           Algorithm algorithm, const RunResult& r) {
    Add(database, k, qid_size, AlgorithmName(algorithm), r.seconds,
        r.solutions, r.stats, r.metrics);
  }

  /// Records a derived scalar (a value computed *across* runs, like the
  /// parallel speedup at a given thread count) under a top-level
  /// "derived" object in the JSON report.
  void SetDerived(const std::string& key, double value) {
    if (enabled()) derived_[key] = value;
  }

  /// Writes the report (no-op when disabled). Returns the process exit
  /// code benches should end with: 0 on success or no-op, 1 on I/O error.
  int Write() const {
    if (!enabled()) return 0;
    std::string json = ToJson();
    FILE* f = fopen(path_.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "error: cannot open %s\n", path_.c_str());
      return 1;
    }
    size_t written = fwrite(json.data(), 1, json.size(), f);
    bool ok = fclose(f) == 0 && written == json.size();
    if (!ok) {
      fprintf(stderr, "error: short write to %s\n", path_.c_str());
      return 1;
    }
    fprintf(stderr, "wrote %s (%zu runs)\n", path_.c_str(), entries_.size());
    return 0;
  }

  std::string ToJson() const {
    std::string out = "{\n";
    out += StringPrintf("  \"schema_version\": 1,\n  \"bench\": %s,\n",
                        obs::JsonString(bench_name_).c_str());
    out += "  \"runs\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += i == 0 ? "\n" : ",\n";
      out += StringPrintf(
          "    {\"database\": %s, \"k\": %lld, \"qid_size\": %zu, "
          "\"algorithm\": %s, \"seconds\": %s, \"solutions\": %zu,\n",
          obs::JsonString(e.database).c_str(), static_cast<long long>(e.k),
          e.qid_size, obs::JsonString(e.algorithm).c_str(),
          obs::JsonDouble(e.seconds).c_str(), e.solutions);
      out += StringPrintf(
          "     \"stats\": {\"nodes_checked\": %lld, \"nodes_marked\": %lld, "
          "\"table_scans\": %lld, \"rollups\": %lld, "
          "\"freq_groups_built\": %lld, \"candidate_nodes\": %lld, "
          "\"tasks_scheduled\": %lld, \"batched_scan_nodes\": %lld, "
          "\"cube_build_seconds\": %s, "
          "\"total_seconds\": %s, \"critical_path_seconds\": %s, "
          "\"scheduler_idle_seconds\": %s, \"batch_scan_seconds\": %s}",
          static_cast<long long>(e.stats.nodes_checked),
          static_cast<long long>(e.stats.nodes_marked),
          static_cast<long long>(e.stats.table_scans),
          static_cast<long long>(e.stats.rollups),
          static_cast<long long>(e.stats.freq_groups_built),
          static_cast<long long>(e.stats.candidate_nodes),
          static_cast<long long>(e.stats.tasks_scheduled),
          static_cast<long long>(e.stats.batched_scan_nodes),
          obs::JsonDouble(e.stats.cube_build_seconds).c_str(),
          obs::JsonDouble(e.stats.total_seconds).c_str(),
          obs::JsonDouble(e.stats.critical_path_seconds).c_str(),
          obs::JsonDouble(e.stats.scheduler_idle_seconds).c_str(),
          obs::JsonDouble(e.stats.batch_scan_seconds).c_str());
      out += AppendMetrics(e.metrics);
      out += "}";
    }
    out += entries_.empty() ? "],\n" : "\n  ],\n";
    if (!derived_.empty()) {
      out += "  \"derived\": {";
      bool first_derived = true;
      for (const auto& [key, value] : derived_) {
        out += StringPrintf("%s\n    %s: %s", first_derived ? "" : ",",
                            obs::JsonString(key).c_str(),
                            obs::JsonDouble(value).c_str());
        first_derived = false;
      }
      out += "\n  },\n";
    }
    // Process-wide observability state, for cross-run context: cumulative
    // since the last reset (RunAlgorithm and MedianSearch reset it).
    out += "  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] :
         obs::CounterRegistry::Global().CounterSnapshot()) {
      out += StringPrintf("%s\n    %s: %lld", first ? "" : ",",
                          obs::JsonString(name).c_str(),
                          static_cast<long long>(value));
      first = false;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, value] :
         obs::CounterRegistry::Global().GaugeSnapshot()) {
      out += StringPrintf("%s\n    %s: %s", first ? "" : ",",
                          obs::JsonString(name).c_str(),
                          obs::JsonDouble(value).c_str());
      first = false;
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
  }

 private:
  struct Entry {
    std::string database;
    int64_t k = 0;
    size_t qid_size = 0;
    std::string algorithm;
    double seconds = 0;
    size_t solutions = 0;
    AlgorithmStats stats;
    obs::MetricsSnapshot metrics;
  };

  static std::string AppendMetrics(const obs::MetricsSnapshot& metrics) {
    std::string out;
    if (!metrics.counters.empty()) {
      out += ",\n     \"counters\": {";
      bool first = true;
      for (const auto& [name, value] : metrics.counters) {
        out += StringPrintf("%s\"%s\": %lld", first ? "" : ", ",
                            obs::JsonEscape(name).c_str(),
                            static_cast<long long>(value));
        first = false;
      }
      out += "}";
    }
    if (!metrics.gauges.empty()) {
      out += ",\n     \"phase_seconds\": {";
      bool first = true;
      for (const auto& [name, value] : metrics.gauges) {
        out += StringPrintf("%s\"%s\": %s", first ? "" : ", ",
                            obs::JsonEscape(name).c_str(),
                            obs::JsonDouble(value).c_str());
        first = false;
      }
      out += "}";
    }
    if (!metrics.histograms.empty()) {
      out += ",\n     \"histograms\": {";
      bool first = true;
      for (const auto& [name, hist] : metrics.histograms) {
        out += StringPrintf(
            "%s\"%s\": {\"count\": %lld, \"p50_seconds\": %s, "
            "\"p95_seconds\": %s, \"p99_seconds\": %s, \"max_seconds\": %s}",
            first ? "" : ", ", obs::JsonEscape(name).c_str(),
            static_cast<long long>(hist.count),
            obs::JsonDouble(hist.PercentileSeconds(50)).c_str(),
            obs::JsonDouble(hist.PercentileSeconds(95)).c_str(),
            obs::JsonDouble(hist.PercentileSeconds(99)).c_str(),
            obs::JsonDouble(hist.MaxSeconds()).c_str());
        first = false;
      }
      out += "}";
    }
    return out;
  }

  std::string bench_name_;
  std::string path_;
  std::vector<Entry> entries_;
  std::map<std::string, double> derived_;
};

/// Prints a standard measurement row (shared layout across the figure
/// benches so the series are easy to diff against the paper's plots).
/// One timed search of a speedup sweep: its wall time, its result and its
/// metrics delta.
struct TimedSearch {
  double seconds;
  PartialResult<IncognitoResult> result;
  obs::MetricsSnapshot delta;
};

/// Runs Incognito over `qid` `runs` times at `threads` threads and returns
/// the median run by wall time — the statistic the gated speedups divide,
/// so one preempted run moves neither side of a speedup. Like
/// RunAlgorithm, each run resets the registry, so its delta's histogram
/// maxima are its own.
inline TimedSearch MedianSearch(const Table& table, const QuasiIdentifier& qid,
                                const AnonymizationConfig& config,
                                const IncognitoOptions& options, int threads,
                                int runs) {
  std::vector<TimedSearch> timed;
  for (int rep = 0; rep < runs; ++rep) {
    obs::CounterRegistry::Global().Reset();
    obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
    Stopwatch timer;
    PartialResult<IncognitoResult> r = RunIncognito(
        table, qid, config, options, RunContext::WithThreads(threads));
    const double seconds = timer.ElapsedSeconds();
    timed.push_back({seconds, std::move(r),
                     obs::MetricsSnapshot::Take().DeltaSince(before)});
  }
  std::sort(timed.begin(), timed.end(),
            [](const TimedSearch& a, const TimedSearch& b) {
              return a.seconds < b.seconds;
            });
  return std::move(timed[timed.size() / 2]);
}

inline void PrintRowHeader() {
  printf("%-10s %3s %4s %-24s %10s %9s %8s %8s %10s\n", "database", "k",
         "qid", "algorithm", "seconds", "checked", "scans", "rollups",
         "solutions");
}

/// Prints a measurement row; when `report` is non-null the row is also
/// recorded for that report's --json output.
inline void PrintRow(const char* database, int64_t k, size_t qid_size,
                     Algorithm algorithm, const RunResult& r,
                     BenchReport* report = nullptr) {
  printf("%-10s %3lld %4zu %-24s %10.3f %9lld %8lld %8lld %10zu\n", database,
         static_cast<long long>(k), qid_size, AlgorithmName(algorithm),
         r.seconds, static_cast<long long>(r.stats.nodes_checked),
         static_cast<long long>(r.stats.table_scans),
         static_cast<long long>(r.stats.rollups), r.solutions);
  fflush(stdout);
  if (report != nullptr) report->Add(database, k, qid_size, algorithm, r);
}

}  // namespace bench
}  // namespace incognito

#endif  // INCOGNITO_BENCH_BENCH_UTIL_H_
