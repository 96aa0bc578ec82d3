// End-to-end and per-layer benchmark of the Incognito library.
//
//   incognito_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                   [--out=TRACE.json] [--tmpdir=DIR] [--smoke=0|1]
//
// One process runs one workload; README.md has the workload and metric
// tables and says which layer metric should move which end-to-end metric.
// The library only ever sees inputs generated from --seed: the synthetic
// Adults and Lands End tables at their generators' own seeds with the rows
// permuted by --seed (see ShuffleRows), and
// for the service workload a CSV and hierarchy CSVs written under a private
// mkdtemp directory inside --tmpdir that is removed at exit. --seed also
// orders each service client's jobs.
//
// Without --trace the run measures the end-to-end metrics with tracing
// off. With --trace it measures the same window untraced, repeats it with
// the TraceRecorder on (MetricsSnapshot deltas give per-phase seconds),
// then makes direct calls into single layers, each inside a "bench.*" span,
// and reports the per-layer metrics; --out names the Chrome trace it
// writes. Every run checks its outputs. The last stdout line is
//
//   {"correct": B, "attempted": N, "failed": N,
//    "metrics": {"NAME": {"value": V, "unit": "U"}, ...}}
//
// and the exit code is 0 only when nothing failed.

#include <stdlib.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "core/ldiversity.h"
#include "core/minimality.h"
#include "core/recoder.h"
#include "data/adults.h"
#include "data/landsend.h"
#include "freq/frequency_set.h"
#include "hierarchy/csv_hierarchy.h"
#include "models/mondrian.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "relation/csv.h"
#include "robust/checkpoint.h"
#include "service/job_spec.h"
#include "service/problem_loader.h"
#include "service/service.h"

namespace incognito {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

/// Worker threads of every search workload (the benchmark machine's nproc).
constexpr int kSearchThreads = 4;

/// Trace events kept in memory during a --trace run. The traced window
/// stops early rather than let the next op overflow it, so no event is
/// ever dropped.
constexpr size_t kTraceCapacity = 2000000;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric names, units and order of BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"latency_p90_s", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"lattice.candidate_gen_s", "s"},
    {"lattice.candidate_nodes", "count"},
    {"lattice.check_ratio", "ratio"},
    {"freq.scan_s", "s"},
    {"freq.table_scans", "count"},
    {"freq.scan_rows", "count"},
    {"freq.batch_amortization", "ratio"},
    {"freq.hash_rows_per_s", "1/s"},
    {"freq.radix_rows_per_s", "1/s"},
    {"freq.rollup_s", "s"},
    {"freq.rollups", "count"},
    {"freq.groups_built", "count"},
    {"core.kcheck_s", "s"},
    {"core.nodes_checked", "count"},
    {"core.sched_idle_s", "s"},
    {"core.critical_path_s", "s"},
    {"core.worker_util", "ratio"},
    {"core.recode_s", "s"},
    {"core.unattributed_share", "ratio"},
    {"robust.checkpoint_writes", "count"},
    {"robust.checkpoint_mb", "MB"},
    {"robust.checkpoint_s", "s"},
    {"robust.accounted_peak_mb", "MB"},
    {"service.load_s", "s"},
    {"relation.csv_read_s", "s"},
    {"hierarchy.build_s", "s"},
    {"service.load_share", "ratio"},
    {"service.execute_s", "s"},
    {"service.overhead_s", "s"},
    {"models.kanon_basic_s", "s"},
    {"models.kanon_superroots_s", "s"},
    {"models.ldiversity_s", "s"},
    {"models.mondrian_s", "s"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.trace_dropped", "count"},
};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  int64_t seed = 0;
  double seconds = 15;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string tmpdir = ".";
};

bool ParseInt(const std::string& text, int64_t* out) {
  char* end = nullptr;
  long long v = strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseSeconds(const std::string& text, double* out) {
  char* end = nullptr;
  double v = strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v > 0) || v > 3600) return false;
  *out = v;
  return true;
}

bool ParseFlag(const std::string& text, bool* out) {
  if (text != "0" && text != "1") return false;
  *out = text == "1";
  return true;
}

/// Every flag is --name=value; run.sh accepts the other spellings.
bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      fprintf(stderr, "error: expected --name=value, got '%s'\n", arg.c_str());
      return false;
    }
    std::string name = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    bool ok = true;
    if (name == "trace") {
      ok = ParseFlag(value, &opt->trace);
    } else if (name == "smoke") {
      ok = ParseFlag(value, &opt->smoke);
    } else if (name == "workload") {
      opt->workload = value;
    } else if (name == "seed") {
      ok = ParseInt(value, &opt->seed);
    } else if (name == "seconds") {
      ok = ParseSeconds(value, &opt->seconds);
    } else if (name == "out") {
      opt->out = value;
    } else if (name == "tmpdir") {
      opt->tmpdir = value;
    } else {
      fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      return false;
    }
    if (!ok) {
      fprintf(stderr, "error: bad value '%s' for --%s\n", value.c_str(),
              name.c_str());
      return false;
    }
  }
  if (opt->workload.empty()) {
    fprintf(stderr, "error: --workload is required\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The q-quantile (q in [0, 1]) with linear interpolation between order
/// statistics; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// The process's resident-set high-water mark (getrusage), in MiB.
double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
}

/// Calls `op` back to back until `seconds` have passed (always at least
/// once) or `more` returns false; returns the window's wall time.
double RunWindow(double seconds, const std::function<void()>& op,
                 const std::function<bool()>& more = {}) {
  Clock::time_point start = Clock::now();
  do {
    op();
  } while (SecondsSince(start) < seconds && (!more || more()));
  return SecondsSince(start);
}

/// Wall time of one call of `fn` inside the bench span `span` (a string
/// literal).
double TimeCall(const char* span, const std::function<void()>& fn) {
  obs::ScopedSpan scope(span);
  Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

/// Median wall time of `reps` calls of `fn`, each inside the span `span`.
double MedianSeconds(int reps, const char* span,
                     const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(TimeCall(span, fn));
  return Median(times);
}

/// setup_s is the median of this many samples.
constexpr int kSetupSamples = 3;

/// A set-up sample repeats the set-up until this long has passed and
/// takes the mean, so that an Adults set-up (about 11 ms) is never timed
/// as a single call.
constexpr double kSetupSampleSeconds = 0.25;

/// Times `set_up` (false on failure) into setup_s; false if it failed.
bool TimeSetup(const std::function<bool()>& set_up, double* setup_s) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    Clock::time_point start = Clock::now();
    double elapsed = 0;
    int n = 0;
    do {
      if (!set_up()) return false;
      ++n;
      elapsed = SecondsSince(start);
    } while (elapsed < kSetupSampleSeconds);
    samples.push_back(elapsed / n);
  }
  *setup_s = Median(samples);
  return true;
}

/// Starts recording spans, counters and the scheduler timeline.
void StartTrace() {
  obs::TraceRecorder::Global().SetCapacity(kTraceCapacity);
  obs::TraceRecorder::Global().Enable();
}

/// Whether a traced window may start another op. One op records far fewer
/// than half the buffer (an adults_lattice search about 6k events, a
/// service job under 100), so stopping at half leaves room for the ops
/// still running.
bool TraceHasRoom() {
  return obs::TraceRecorder::Global().num_events() < kTraceCapacity / 2;
}

/// A private mkdtemp directory, removed with its contents on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string pattern = parent + "/incognito-bench-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) != nullptr) path_ = buf.data();
  }
  ~TempDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Empty when mkdtemp failed.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// What one run reports: the op counts and every metric it measured.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;

  /// Counts a failed correctness check.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
};

/// Prints the metric set of this run kind (end-to-end, or per-layer under
/// --trace) to stderr as a table and to stdout as the one-line result.
void PrintOutcome(const Outcome& out, const Options& opt) {
  const MetricDef* begin = opt.trace ? std::begin(kPerLayer)
                                     : std::begin(kEndToEnd);
  const MetricDef* end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  fprintf(stderr, "%s  seed=%lld  attempted=%lld  failed=%lld\n",
          opt.workload.c_str(), static_cast<long long>(opt.seed),
          static_cast<long long>(out.attempted),
          static_cast<long long>(out.failed));
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (const MetricDef* m = begin; m != end; ++m) {
    auto it = out.values.find(m->name);
    double value = it != out.values.end() && std::isfinite(it->second)
                       ? it->second
                       : 0;
    fprintf(stderr, "  %-28s %16.6g %s\n", m->name, value, m->unit);
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", value);
    json += m == begin ? "" : ", ";
    json += "\"" + std::string(m->name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m->unit + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
}

// ---------------------------------------------------------------------------
// Layer accounting (--trace)
// ---------------------------------------------------------------------------

/// Algorithm counters summed over the ops of the traced window.
struct LayerTotals {
  int64_t ops = 0;
  double wall_s = 0;  ///< wall time the ops had (see FillLayerMetrics)
  AlgorithmStats stats;
  double util_sum = 0;
  int64_t util_n = 0;

  void Add(const AlgorithmStats& s, const std::vector<double>& utilization) {
    ++ops;
    stats.MergeCounters(s);
    for (double u : utilization) {
      util_sum += u;
      ++util_n;
    }
  }
};

/// The lattice / freq / core / checkpoint-count metrics of the traced
/// window, per op, from its summed counters, its MetricsSnapshot delta and
/// its spans. `threads` workers had `totals.wall_s` seconds each; the share
/// of those worker-seconds that neither a phase nor scheduler idle time
/// accounts for is core.unattributed_share.
void FillLayerMetrics(const LayerTotals& t, const obs::MetricsSnapshot& delta,
                      int threads, Outcome* out) {
  auto gauge = [&](const char* name) {
    auto it = delta.gauges.find(name);
    return it == delta.gauges.end() ? 0.0 : it->second;
  };
  auto counter = [&](const char* name) {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Candidate generation has a phase gauge only on the serial walk; its
  // spans cover the pipelined walk too.
  const std::map<std::string, obs::SpanRollup> spans =
      obs::TraceRecorder::Global().RollupByName();
  auto span_seconds = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_seconds;
  };
  const AlgorithmStats& s = t.stats;
  const double ops = static_cast<double>(std::max<int64_t>(t.ops, 1));
  const double candidate_gen = span_seconds("lattice.single_attribute_graph") +
                               span_seconds("lattice.candidate_gen") +
                               span_seconds("lattice.subset_candidate_gen");
  const double scan = gauge("phase.freq_scan_seconds");
  const double rollup = gauge("phase.rollup_seconds");
  const double kcheck = gauge("phase.kcheck_seconds");
  const double attributed =
      candidate_gen + scan + rollup + kcheck + gauge("phase.mark_seconds") +
      gauge("phase.projection_seconds") + gauge("phase.cube_build_seconds") +
      s.scheduler_idle_seconds;
  auto per_op = [&](double v) { return v / ops; };
  std::map<std::string, double>& v = out->values;
  v["lattice.candidate_gen_s"] = per_op(candidate_gen);
  v["lattice.candidate_nodes"] = per_op(s.candidate_nodes);
  v["lattice.check_ratio"] = Ratio(s.nodes_checked, s.candidate_nodes);
  v["freq.scan_s"] = per_op(scan);
  v["freq.table_scans"] = per_op(s.table_scans);
  v["freq.scan_rows"] = per_op(counter("freq.scan_rows"));
  v["freq.batch_amortization"] = Ratio(s.batched_scan_nodes, s.table_scans);
  v["freq.rollup_s"] = per_op(rollup);
  v["freq.rollups"] = per_op(s.rollups);
  v["freq.groups_built"] = per_op(s.freq_groups_built);
  v["core.kcheck_s"] = per_op(kcheck);
  v["core.nodes_checked"] = per_op(s.nodes_checked);
  v["core.sched_idle_s"] = per_op(s.scheduler_idle_seconds);
  v["core.critical_path_s"] = per_op(s.critical_path_seconds);
  v["core.worker_util"] = Ratio(t.util_sum, t.util_n);
  v["core.unattributed_share"] = 1 - Ratio(attributed, threads * t.wall_s);
  v["robust.checkpoint_writes"] = per_op(s.checkpoint_writes);
  v["robust.checkpoint_mb"] = per_op(s.checkpoint_bytes / kMiB);
}

/// Rows per second of one frequency-set build at the all-zero full-QID
/// node with the group-by substrate pinned to `mode` (median of three), and
/// that build's group count.
double SubstrateRowsPerSecond(const Table& table, const QuasiIdentifier& qid,
                              SubstrateMode mode, size_t* groups) {
  SubsetNode node =
      SubsetNode::Full(std::vector<int32_t>(qid.size(), 0));
  const char* span = mode == SubstrateMode::kHash ? "bench.freq.compute_hash"
                                                  : "bench.freq.compute_radix";
  double seconds = MedianSeconds(3, span, [&] {
    *groups = FrequencySet::Compute(table, qid, node, mode).NumGroups();
  });
  return Ratio(static_cast<double>(table.num_rows()), seconds);
}

/// freq.{hash,radix}_rows_per_s, plus the check that both substrates build
/// the same number of groups.
void FillSubstrateMetrics(const Table& table, const QuasiIdentifier& qid,
                          Outcome* out) {
  size_t hash_groups = 0, radix_groups = 0;
  out->values["freq.hash_rows_per_s"] =
      SubstrateRowsPerSecond(table, qid, SubstrateMode::kHash, &hash_groups);
  out->values["freq.radix_rows_per_s"] =
      SubstrateRowsPerSecond(table, qid, SubstrateMode::kRadix, &radix_groups);
  out->Check(hash_groups == radix_groups && hash_groups > 0,
             "hash and radix substrates build the same groups");
}

/// core.recode_s: materializing the lowest-height result node.
void FillRecodeMetric(const Table& table, const QuasiIdentifier& qid,
                      const AnonymizationConfig& config,
                      const std::vector<SubsetNode>& nodes, Outcome* out) {
  if (nodes.empty()) return;
  SubsetNode minimal = MinimalByHeight(nodes).front();
  bool ok = true;
  out->values["core.recode_s"] = MedianSeconds(3, "bench.core.recode", [&] {
    ok = ok && ApplyFullDomainGeneralization(table, qid, minimal, config).ok();
  });
  out->Check(ok, "recoding the minimal node");
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// `table`'s rows in an order drawn from `seed`. The seed permutes rather
/// than re-seeding the generator because at k = 2 a different sample
/// changes the lattice work itself (up to 1.6x in search time across
/// seeds), while a permutation keeps the multiset of tuples — and so S_n
/// and every search counter — and still hands the library a different
/// table.
///
/// Blocks of kShuffleBlock rows trade places, and each block's rows are
/// permuted within it. A uniform permutation reads every column at random:
/// on Lands End it took 1.1 s, against 0.5 s for this one, next to the
/// generator's 1.8-2.0 s.
Table ShuffleRows(const Table& table, int64_t seed) {
  constexpr size_t kShuffleBlock = 64;
  const size_t n = table.num_rows();
  Rng rng(static_cast<uint64_t>(seed));
  auto shuffle = [&](std::vector<size_t>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
    }
  };
  std::vector<size_t> blocks((n + kShuffleBlock - 1) / kShuffleBlock);
  std::iota(blocks.begin(), blocks.end(), 0);
  shuffle(&blocks);
  std::vector<size_t> offsets(kShuffleBlock);
  std::iota(offsets.begin(), offsets.end(), 0);
  // An empty table that shares `table`'s dictionaries, so codes stay valid.
  Table out = table.FilterRows(std::vector<bool>(n, false));
  std::vector<int32_t> codes(table.num_columns());
  for (size_t b : blocks) {
    shuffle(&offsets);
    for (size_t o : offsets) {
      const size_t r = b * kShuffleBlock + o;
      if (r >= n) continue;
      for (size_t c = 0; c < codes.size(); ++c) codes[c] = table.GetCode(r, c);
      out.AppendRowCodes(codes);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// CRC-32 of the sorted node strings, one per line.
uint32_t NodesCrc(const std::vector<SubsetNode>& nodes,
                  const QuasiIdentifier& qid) {
  std::vector<std::string> names;
  for (const SubsetNode& n : nodes) names.push_back(n.ToString(&qid));
  std::sort(names.begin(), names.end());
  std::string joined;
  for (const std::string& n : names) joined += n + "\n";
  return Crc32(joined.data(), joined.size());
}

/// The gate every search result passes: S_n is non-empty and closed upward
/// (each direct generalization of a member is a member), and each
/// lattice-minimal member passes the one-scan k-anonymity oracle.
void ValidateResultSet(const Table& table, const QuasiIdentifier& qid,
                       const AnonymizationConfig& config,
                       const std::vector<SubsetNode>& nodes, Outcome* out) {
  out->Check(!nodes.empty(), "result set is non-empty");
  std::set<std::vector<int32_t>> members;
  for (const SubsetNode& n : nodes) members.insert(n.levels);
  const std::vector<int32_t> top = qid.MaxLevels();
  bool closed = true;
  for (const SubsetNode& n : nodes) {
    for (size_t i = 0; i < n.levels.size(); ++i) {
      if (n.levels[i] >= top[i]) continue;
      std::vector<int32_t> up = n.levels;
      ++up[i];
      closed = closed && members.count(up) > 0;
    }
  }
  out->Check(closed, "result set is closed upward");
  for (const SubsetNode& n : ParetoMinimal(nodes)) {
    out->Check(IsKAnonymous(table, qid, n, config, nullptr, kSearchThreads),
               "minimal node " + n.ToString(&qid) + " is k-anonymous");
  }
}

/// Compares a full-size result with its pinned node count and CRC.
void CheckPin(const char* what, size_t count, uint32_t crc,
              size_t pinned_count, uint32_t pinned_crc, Outcome* out) {
  fprintf(stderr, "%s: %zu nodes, crc32 %u\n", what, count, crc);
  out->Check(count == pinned_count && crc == pinned_crc,
             std::string(what) + " matches its pinned node count and CRC");
}

// ---------------------------------------------------------------------------
// Search workloads
// ---------------------------------------------------------------------------

struct SearchWorkload {
  const char* name;
  bool landsend;  ///< Lands End generator; Adults otherwise
  size_t rows;
  size_t smoke_rows;
  size_t qid_size;
  int64_t k;
  IncognitoVariant variant;
  bool checkpoint;  ///< a checkpoint file write at every finished subset
  int warmups;
  size_t pinned_nodes;  ///< |S_n| at full size (any seed)
  uint32_t pinned_crc;  ///< NodesCrc at full size (any seed)
};

// Why these three: README.md "Workloads".
constexpr SearchWorkload kSearchWorkloads[] = {
    {"adults_lattice", false, 45222, 4000, 9, 2, IncognitoVariant::kSuperRoots,
     false, 3, 161, 2514220867u},
    {"adults_checkpoint", false, 45222, 4000, 8, 2,
     IncognitoVariant::kSuperRoots, true, 1, 102, 1254954756u},
    {"landsend_scan", true, 4591581, 60000, 4, 10, IncognitoVariant::kBasic,
     false, 1, 44, 1320730013u},
};

/// The workload's table at its generator's own seed, rows in seeded order.
Result<SyntheticDataset> Generate(const SearchWorkload& w, size_t rows,
                                  int64_t seed) {
  Result<SyntheticDataset> data =
      w.landsend ? MakeLandsEndDataset(LandsEndOptions{rows})
                 : MakeAdultsDataset(AdultsOptions{rows});
  if (data.ok()) data->table = ShuffleRows(data->table, seed);
  return data;
}

struct Op {
  double seconds = 0;
  bool ok = false;
};

/// One workload's search, and the answer every repetition must reproduce.
struct SearchRunner {
  const Table& table;
  QuasiIdentifier qid;
  AnonymizationConfig config;
  IncognitoOptions options;
  CheckpointPolicy policy;  ///< path set only for checkpoint workloads
  std::vector<SubsetNode> reference;  ///< sorted S_n of the first search

  /// Runs one search, writing checkpoints when `checkpoint` (the file is
  /// deleted first, outside the timing) and charging `governor` when set.
  /// The op fails on an error status or when S_n differs from the first
  /// search's.
  Op Run(bool checkpoint, ExecutionGovernor* governor, LayerTotals* totals) {
    RunContext ctx;
    ctx.governor = governor;
    if (checkpoint) {
      std::error_code ec;
      std::filesystem::remove(policy.path, ec);
      ctx.checkpoint = &policy;
    }
    Op op;
    std::optional<PartialResult<IncognitoResult>> r;
    {
      obs::ScopedSpan span("bench.search");
      Clock::time_point start = Clock::now();
      r.emplace(RunIncognito(table, qid, config, options, ctx));
      op.seconds = SecondsSince(start);
    }
    if (!r->ok()) {
      fprintf(stderr, "search failed: %s\n", r->status().ToString().c_str());
      return op;
    }
    std::vector<SubsetNode> nodes = (*r)->anonymous_nodes;
    std::sort(nodes.begin(), nodes.end());
    if (reference.empty()) reference = nodes;
    op.ok = nodes == reference &&
            (!checkpoint || (*r)->stats.checkpoint_writes > 0);
    if (totals != nullptr) {
      totals->Add((*r)->stats, (*r)->worker_utilization);
      totals->wall_s += op.seconds;
    }
    return op;
  }
};

/// The --trace half of a search workload: the traced window and the
/// direct layer calls.
void TraceSearch(const SearchWorkload& w, SearchRunner& runner,
                 const std::vector<double>& untraced, const Options& opt,
                 Outcome* out) {
  StartTrace();
  LayerTotals totals;
  std::vector<double> traced;
  obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
  RunWindow(
      opt.seconds,
      [&] {
        Op op = runner.Run(w.checkpoint, nullptr, &totals);
        ++out->attempted;
        out->Check(op.ok, "traced search reproduces S_n");
        traced.push_back(op.seconds);
      },
      TraceHasRoom);
  obs::MetricsSnapshot delta = obs::MetricsSnapshot::Take().DeltaSince(before);
  FillLayerMetrics(totals, delta, kSearchThreads, out);
  out->values["obs.trace_overhead_ratio"] =
      Ratio(Median(traced), Median(untraced));
  fprintf(stderr, "traced window: %zu searches, %zu trace events\n",
          traced.size(), obs::TraceRecorder::Global().num_events());

  FillSubstrateMetrics(runner.table, runner.qid, out);
  FillRecodeMetric(runner.table, runner.qid, runner.config, runner.reference,
                   out);
  ExecutionGovernor governor;  // unlimited: accounting only
  {
    obs::ScopedSpan span("bench.robust.governed_search");
    out->Check(runner.Run(false, &governor, nullptr).ok,
               "governed search reproduces S_n");
  }
  out->values["robust.accounted_peak_mb"] =
      static_cast<double>(governor.memory().peak()) / kMiB;
}

/// Runs a search workload. False when its inputs could not be set up (no
/// result line is printed then).
bool RunSearchWorkload(const SearchWorkload& w, const Options& opt,
                       const TempDir& tmp, Outcome* out) {
  const size_t rows = opt.smoke ? w.smoke_rows : w.rows;
  SyntheticDataset data;
  bool set_up = TimeSetup(
      [&] {
        data = SyntheticDataset();  // one dataset alive at a time
        Result<SyntheticDataset> generated = Generate(w, rows, opt.seed);
        if (!generated.ok()) {
          fprintf(stderr, "error: generating %s input: %s\n", w.name,
                  generated.status().ToString().c_str());
          return false;
        }
        data = std::move(generated).value();
        return true;
      },
      &out->values["setup_s"]);
  if (!set_up) return false;

  SearchRunner runner{data.table, data.qid.Prefix(w.qid_size), {}, {}, {}, {}};
  runner.config.k = w.k;
  runner.options.variant = w.variant;
  runner.options.num_threads = kSearchThreads;
  if (w.checkpoint) runner.policy.path = tmp.path() + "/search.ckpt";

  for (int i = 0; i < w.warmups; ++i) {
    out->Check(runner.Run(w.checkpoint, nullptr, nullptr).ok,
               "warm-up search");
  }
  std::vector<double> latencies;
  double window = RunWindow(opt.seconds, [&] {
    Op op = runner.Run(w.checkpoint, nullptr, nullptr);
    ++out->attempted;
    out->Check(op.ok, "search reproduces S_n");
    latencies.push_back(op.seconds);
  });
  fprintf(stderr, "%s: %zu searches in %.3f s\n", w.name, latencies.size(),
          window);
  out->values["peak_rss_mb"] = PeakRssMb();
  out->values["latency_p50_s"] = Median(latencies);
  out->values["latency_p90_s"] = Quantile(latencies, 0.9);
  out->values["throughput_per_s"] =
      static_cast<double>(latencies.size()) / window;

  ValidateResultSet(runner.table, runner.qid, runner.config, runner.reference,
                    out);
  if (!opt.smoke) {
    CheckPin(w.name, runner.reference.size(),
             NodesCrc(runner.reference, runner.qid), w.pinned_nodes,
             w.pinned_crc, out);
  }
  if (w.checkpoint) {
    // The same search without a checkpoint must give the same S_n; under
    // --trace its median is the baseline robust.checkpoint_s subtracts.
    std::vector<double> plain;
    for (int i = 0; i < (opt.trace ? 5 : 1); ++i) {
      Op op = runner.Run(false, nullptr, nullptr);
      out->Check(op.ok, "uncheckpointed search gives the checkpointed S_n");
      plain.push_back(op.seconds);
    }
    out->values["robust.checkpoint_s"] = Median(latencies) - Median(plain);
  }

  if (opt.trace) TraceSearch(w, runner, latencies, opt, out);
  return true;
}

// ---------------------------------------------------------------------------
// Service workload
// ---------------------------------------------------------------------------

constexpr const char* kServiceWorkload = "service_mixed";
constexpr size_t kServiceRows = 45222;
constexpr size_t kServiceSmokeRows = 4000;
constexpr size_t kServiceQid = 5;
constexpr int64_t kServiceK = 10;
constexpr int kServiceWorkers = 2;
constexpr int kServiceClients = 2;
constexpr int kServiceWarmupJobs = 4;
/// Σ |nodes| over the four reference results, and the CRC-32 of their
/// "model node" lines, at full size (any seed: it only orders the rows).
constexpr size_t kServicePinnedNodes = 93;
constexpr uint32_t kServicePinnedCrc = 1121426800u;

/// Writes the service inputs — the Adults table as CSV and one hierarchy
/// CSV per QID attribute — into `dir`, and returns the four job specs
/// (Basic, Super-roots, ℓ-diversity, Mondrian) that name them.
Result<std::vector<JobSpec>> WriteServiceInputs(size_t rows, int64_t seed,
                                                const std::string& dir) {
  Result<SyntheticDataset> data = MakeAdultsDataset(AdultsOptions{rows});
  if (!data.ok()) return data.status();
  data->table = ShuffleRows(data->table, seed);
  JobSpec base;
  base.input = dir + "/adults.csv";
  base.k = kServiceK;
  INCOGNITO_RETURN_IF_ERROR(WriteCsv(data->table, base.input));
  for (size_t i = 0; i < kServiceQid; ++i) {
    std::string path = dir + "/hierarchy-" + std::to_string(i) + ".csv";
    INCOGNITO_RETURN_IF_ERROR(WriteHierarchyCsv(data->qid.hierarchy(i), path));
    base.qid.push_back(data->qid.name(i));
    base.hierarchies[data->qid.name(i)] = "file:" + path;
  }
  std::vector<JobSpec> specs(4, base);
  specs[1].variant = IncognitoVariant::kSuperRoots;
  specs[2].model = JobModel::kLDiversity;
  specs[2].l = 2;
  specs[2].sensitive_attribute = "Occupation";
  specs[3].model = JobModel::kMondrian;
  return specs;
}

/// What one closed-loop client saw.
struct ClientLog {
  std::vector<double> latencies;
  int64_t failed = 0;
  LayerTotals totals;
};

/// One closed-loop client: submit, Wait, check the reply against the
/// direct ExecuteJob answer, repeat — until `until` or until `more`
/// returns false. Each cycle runs the four specs in a seeded shuffle, so
/// every client runs each model equally often.
void RunClient(ServiceCore& core, const std::vector<JobSpec>& specs,
               const std::vector<std::string>& expected, int client,
               uint64_t seed, Clock::time_point until,
               const std::function<bool()>& more, ClientLog* log) {
  Rng rng(seed);
  std::vector<size_t> order(specs.size());
  std::iota(order.begin(), order.end(), 0);
  size_t next = order.size();
  do {
    if (next == order.size()) {
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Uniform(i + 1)]);
      }
      next = 0;
    }
    const size_t kind = order[next++];
    JobSpec spec = specs[kind];
    spec.tenant = "client" + std::to_string(client);
    Clock::time_point start = Clock::now();
    Result<JobId> id = core.Submit(std::move(spec));
    Result<JobResult> result =
        id.ok() ? core.Wait(id.value()) : Result<JobResult>(id.status());
    log->latencies.push_back(SecondsSince(start));
    bool ok = result.ok() && result->status.ok() &&
              JobResultToJson(result.value()) == expected[kind];
    if (!ok) ++log->failed;
    if (result.ok()) log->totals.Add(result->stats, {});
  } while (Clock::now() < until && (!more || more()));
}

/// Runs the closed-loop clients against `core` for `seconds`; returns the
/// window's wall time, until the last client's last reply.
double RunClients(ServiceCore& core, const std::vector<JobSpec>& specs,
                  const std::vector<std::string>& expected, int64_t seed,
                  double seconds, const std::function<bool()>& more,
                  std::vector<ClientLog>* logs) {
  logs->assign(kServiceClients, ClientLog());
  Clock::time_point start = Clock::now();
  Clock::time_point until =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kServiceClients; ++c) {
    clients.emplace_back(RunClient, std::ref(core), std::cref(specs),
                         std::cref(expected), c,
                         static_cast<uint64_t>(seed) * kServiceClients + c,
                         until, std::cref(more), &(*logs)[c]);
  }
  for (std::thread& t : clients) t.join();
  return SecondsSince(start);
}

/// Folds client logs into the outcome; returns every job latency.
std::vector<double> CollectClients(const std::vector<ClientLog>& logs,
                                   const char* what, Outcome* out) {
  std::vector<double> latencies;
  for (const ClientLog& log : logs) {
    latencies.insert(latencies.end(), log.latencies.begin(),
                     log.latencies.end());
    out->attempted += static_cast<int64_t>(log.latencies.size());
    for (int64_t i = 0; i < log.failed; ++i) out->Check(false, what);
  }
  return latencies;
}

/// The --trace half of the service workload: the traced window, then
/// direct calls into the loader, the CSV reader and each model.
void TraceService(ServiceCore& core, const std::vector<JobSpec>& specs,
                  const std::vector<std::string>& expected,
                  const std::vector<double>& untraced,
                  const std::vector<double>& execute_times,
                  const Options& opt, Outcome* out) {
  std::map<std::string, double>& v = out->values;
  std::vector<ClientLog> logs;
  StartTrace();
  obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
  double window = RunClients(core, specs, expected, opt.seed, opt.seconds,
                             TraceHasRoom, &logs);
  obs::MetricsSnapshot delta = obs::MetricsSnapshot::Take().DeltaSince(before);
  std::vector<double> traced =
      CollectClients(logs, "traced job matches its direct ExecuteJob", out);
  LayerTotals totals;
  for (const ClientLog& log : logs) {
    totals.ops += log.totals.ops;
    totals.stats.MergeCounters(log.totals.stats);
  }
  totals.wall_s = window;
  FillLayerMetrics(totals, delta, kServiceWorkers, out);
  v["obs.trace_overhead_ratio"] = Ratio(Median(traced), Median(untraced));
  fprintf(stderr, "traced window: %zu jobs, %zu trace events\n", traced.size(),
          obs::TraceRecorder::Global().num_events());

  const JobSpec& spec = specs[0];
  const double execute = Median(execute_times);
  v["service.execute_s"] = execute;
  v["service.overhead_s"] = Median(untraced) - execute;
  // Load and its CSV read alternate, so drift between the two batches
  // cannot make hierarchy.build_s (their difference) meaningless.
  bool ok = true;
  std::vector<double> loads, csv_reads;
  for (int i = 0; i < 7; ++i) {
    loads.push_back(TimeCall("bench.service.load_problem", [&] {
      ok = ok && LoadProblem(spec.input, spec.qid, spec.hierarchies).ok();
    }));
    csv_reads.push_back(TimeCall("bench.relation.read_csv", [&] {
      ok = ok && ReadCsv(spec.input).ok();
    }));
  }
  out->Check(ok, "loading the service input");
  const double load = Median(loads);
  const double csv_read = Median(csv_reads);
  v["service.load_s"] = load;
  v["relation.csv_read_s"] = csv_read;
  v["hierarchy.build_s"] = load - csv_read;
  v["service.load_share"] = Ratio(load, execute);

  Result<LoadedProblem> problem =
      LoadProblem(spec.input, spec.qid, spec.hierarchies);
  if (!problem.ok()) {
    out->Check(false, "loading the service input");
    return;
  }
  const Table& table = problem->table;
  const QuasiIdentifier& qid = problem->qid;
  AnonymizationConfig config;
  config.k = kServiceK;
  std::vector<SubsetNode> basic_nodes;
  for (IncognitoVariant variant :
       {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots}) {
    IncognitoOptions options;
    options.variant = variant;
    const bool basic = variant == IncognitoVariant::kBasic;
    v[basic ? "models.kanon_basic_s" : "models.kanon_superroots_s"] =
        MedianSeconds(3, basic ? "bench.models.kanon_basic"
                               : "bench.models.kanon_superroots",
                      [&] {
                        PartialResult<IncognitoResult> r =
                            RunIncognito(table, qid, config, options);
                        ok = ok && r.ok();
                        if (r.ok() && basic) basic_nodes = r->anonymous_nodes;
                      });
  }
  LDiversityConfig dconfig;
  dconfig.k = kServiceK;
  dconfig.l = specs[2].l;
  dconfig.sensitive_attribute = specs[2].sensitive_attribute;
  v["models.ldiversity_s"] = MedianSeconds(3, "bench.models.ldiversity", [&] {
    ok = ok && RunLDiversityIncognito(table, qid, dconfig).ok();
  });
  v["models.mondrian_s"] = MedianSeconds(3, "bench.models.mondrian", [&] {
    ok = ok && RunMondrian(table, qid, config).ok();
  });
  out->Check(ok, "direct model runs on the loaded problem");
  FillRecodeMetric(table, qid, config, basic_nodes, out);
  FillSubstrateMetrics(table, qid, out);

  ExecutionGovernor governor;  // unlimited: accounting only
  {
    obs::ScopedSpan span("bench.robust.governed_search");
    out->Check(RunIncognito(table, qid, config, {},
                            RunContext::Governed(governor))
                   .ok(),
               "governed search on the loaded problem");
  }
  v["robust.accounted_peak_mb"] =
      static_cast<double>(governor.memory().peak()) / kMiB;
}

/// Runs the service workload. False when its inputs could not be set up.
bool RunServiceWorkload(const Options& opt, const TempDir& tmp,
                        Outcome* out) {
  const size_t rows = opt.smoke ? kServiceSmokeRows : kServiceRows;
  std::vector<JobSpec> specs;
  // Each repetition rewrites the same files with the same bytes.
  bool set_up = TimeSetup(
      [&] {
        Result<std::vector<JobSpec>> written =
            WriteServiceInputs(rows, opt.seed, tmp.path());
        if (!written.ok()) {
          fprintf(stderr, "error: writing the service input: %s\n",
                  written.status().ToString().c_str());
          return false;
        }
        specs = std::move(written).value();
        return true;
      },
      &out->values["setup_s"]);
  if (!set_up) return false;

  // The reference answer of each spec is a direct ExecuteJob; under
  // --trace its repetitions also give service.execute_s.
  std::vector<std::string> expected;
  std::vector<double> execute_times;
  size_t node_total = 0;
  std::string node_lines;
  for (int rep = 0; rep < (opt.trace ? 3 : 1); ++rep) {
    for (size_t i = 0; i < specs.size(); ++i) {
      ExecutionGovernor governor;
      Clock::time_point start = Clock::now();
      JobResult result = ExecuteJob(specs[i], &governor);
      execute_times.push_back(SecondsSince(start));
      const char* model = JobModelName(specs[i].model);
      out->Check(result.status.ok(),
                 std::string("direct ExecuteJob of ") + model);
      std::string json = JobResultToJson(result);
      if (rep > 0) {
        out->Check(json == expected[i], "direct ExecuteJob repeats");
        continue;
      }
      expected.push_back(json);
      node_total += result.nodes.size();
      for (const std::string& node : result.nodes) {
        node_lines += std::string(model) + " " + node + "\n";
      }
    }
  }
  if (!opt.smoke) {
    CheckPin(kServiceWorkload, node_total,
             Crc32(node_lines.data(), node_lines.size()), kServicePinnedNodes,
             kServicePinnedCrc, out);
  }

  ServiceConfig config;
  config.num_workers = kServiceWorkers;
  ServiceCore core(config);
  for (int i = 0; i < kServiceWarmupJobs; ++i) {
    const size_t kind = static_cast<size_t>(i) % specs.size();
    Result<JobId> id = core.Submit(specs[kind]);
    Result<JobResult> result =
        id.ok() ? core.Wait(id.value()) : Result<JobResult>(id.status());
    out->Check(
        result.ok() && JobResultToJson(result.value()) == expected[kind],
        "warm-up job matches its direct ExecuteJob");
  }
  std::vector<ClientLog> logs;
  double window = RunClients(core, specs, expected, opt.seed, opt.seconds,
                             {}, &logs);
  std::vector<double> latencies =
      CollectClients(logs, "job matches its direct ExecuteJob", out);
  fprintf(stderr, "%s: %zu jobs in %.3f s\n", kServiceWorkload,
          latencies.size(), window);
  out->values["peak_rss_mb"] = PeakRssMb();
  out->values["latency_p50_s"] = Median(latencies);
  out->values["latency_p90_s"] = Quantile(latencies, 0.9);
  out->values["throughput_per_s"] =
      static_cast<double>(latencies.size()) / window;

  if (opt.trace) {
    TraceService(core, specs, expected, latencies, execute_times, opt, out);
  }
  core.Drain();
  return true;
}

}  // namespace
}  // namespace incognito

int main(int argc, char** argv) {
  using namespace incognito;
  const Clock::time_point started = Clock::now();
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    fprintf(stderr,
            "usage: incognito_bench --workload=NAME [--seed=N] [--seconds=S] "
            "[--trace=0|1] [--out=TRACE.json] [--tmpdir=DIR] [--smoke=0|1]\n");
    return 2;
  }
  const SearchWorkload* search = nullptr;
  for (const SearchWorkload& w : kSearchWorkloads) {
    if (opt.workload == w.name) search = &w;
  }
  if (search == nullptr && opt.workload != kServiceWorkload) {
    fprintf(stderr, "error: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  TempDir tmp(opt.tmpdir);
  if (tmp.path().empty()) {
    fprintf(stderr, "error: cannot create a temp dir in %s\n",
            opt.tmpdir.c_str());
    return 1;
  }

  Outcome out;
  bool ran = search != nullptr ? RunSearchWorkload(*search, opt, tmp, &out)
                               : RunServiceWorkload(opt, tmp, &out);
  if (!ran) return 1;
  if (opt.trace) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.Disable();
    out.values["obs.trace_dropped"] =
        static_cast<double>(recorder.dropped_events());
    out.Check(recorder.dropped_events() == 0, "trace dropped no events");
    if (!opt.out.empty()) {
      Status written = recorder.WriteJson(opt.out);
      out.Check(written.ok(), "writing the trace: " + written.ToString());
      if (written.ok()) {
        fprintf(stderr, "wrote %s (%zu events)\n", opt.out.c_str(),
                recorder.num_events());
      }
    }
  }
  fprintf(stderr, "process wall time before teardown: %.1f s\n",
          SecondsSince(started));
  PrintOutcome(out, opt);
  return out.failed == 0 ? 0 : 1;
}
