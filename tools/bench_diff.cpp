// bench_diff — the machine-checked perf regression gate.
//
// Compares two BENCH_*.json files (bench/bench_util.h BenchReport format)
// key by key: per-run stats/counters/phase_seconds/histograms (runs are
// matched by their database/k/qid_size/algorithm identity), the derived
// speedup keys, and the cumulative top-level counter/gauge sections.
//
//   bench_diff OLD.json NEW.json [options]
//
// Keys are classified by name and each class has its own relative
// threshold:
//   time      leaf key "seconds" or ending in "_seconds" (noisy, lower is
//             better): REGRESSION when new > old * (1 + time-threshold).
//             Old values below --time-floor seconds are skipped — sub-
//             millisecond timings are scheduler noise, not signal.
//   speedup   keys containing "speedup" (noisy, higher is better):
//             REGRESSION when new < old * (1 - speedup-threshold).
//             Floor: a key ending in "speedup_threads_N", with 2 <= N <=
//             this machine's hardware threads, whose baseline shows
//             scaling (old > 1.0) is also a REGRESSION unless
//             new > 1 + (old - 1) / 3, a third of the way from 1.0 to the
//             baseline, whatever the threshold allows — N workers on N
//             cores must keep a share of the scaling they showed, and a
//             run that stopped scaling sits at 1.0 give or take noise.
//   overhead  keys containing "overhead_ratio" (a with/without timing
//             ratio whose contract is absolute, not relative to the
//             baseline): REGRESSION when new > 1 + overhead-threshold.
//             This gates e.g. the checkpoint plumbing at <= 2% overhead
//             regardless of what the baseline machine measured.
//   exact     keys named "solutions" (a correctness answer): REGRESSION
//             on any difference, in either direction.
//   table_scans  leaf key "table_scans" or ending in "_table_scans"
//             (the scan-economy contract of the scan-sharing batch
//             evaluator — docs/PARALLELISM.md): REGRESSION on any growth,
//             whatever --counter-threshold allows. The --no-batch-scan
//             ablation leg, which adds scans by design, --ignore's them.
//   counter   everything else (deterministic work counters, lower is
//             better): REGRESSION when new > old * (1 + counter-threshold)
//             — defaults to exact, since the synthetic datasets are
//             seeded and the search is deterministic.
//
// A run or key present in OLD but missing from NEW is a coverage
// regression; keys only in NEW are accepted silently (schema growth).
//
// Options:
//   --time-threshold=R      allowed relative slowdown (default 0.5)
//   --speedup-threshold=R   allowed relative speedup loss (default 0.5)
//   --counter-threshold=R   allowed relative counter growth (default 0)
//   --overhead-threshold=R  allowed absolute overhead-ratio excess over
//                           1.0 (default 0.02)
//   --time-floor=S          ignore time keys whose OLD value is below S
//                           seconds (default 0.001)
//   --ignore=SUBSTR[,...]   skip keys whose path contains any SUBSTR; a
//                           leading '^' anchors the match at the start of
//                           the dotted path
//   --list                  also print improvements and skipped keys
//
// Every R and S is a whole decimal number; anything else is a usage error.
//
// Exit codes (the CI contract):
//   0  no regressions          3  malformed/incompatible input JSON
//   1  regressions (each       4  I/O error reading a file
//      printed as a named      2  usage error
//      "REGRESSION <key>" line)
//
// CI runs this against bench/baselines/ with generous thresholds
// (--time-threshold=1.0: hard-fail only on >2x slowdowns); see
// .github/workflows/ci.yml and docs/OBSERVABILITY.md.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "obs/json_util.h"

using incognito::Split;
using incognito::StringPrintf;
using incognito::obs::JsonValue;
using incognito::obs::ParseJson;

namespace {

struct Options {
  double time_threshold = 0.5;
  double speedup_threshold = 0.5;
  double counter_threshold = 0.0;
  double overhead_threshold = 0.02;
  double time_floor = 1e-3;
  std::vector<std::string> ignore;
  bool list = false;
};

enum class KeyClass {
  kTime,
  kSpeedup,
  kOverhead,
  kExact,
  kTableScans,
  kCounter
};

/// Classifies a flattened key path by its leaf segment (see file header).
KeyClass ClassifyKey(const std::string& path) {
  size_t dot = path.rfind('.');
  std::string leaf = dot == std::string::npos ? path : path.substr(dot + 1);
  if (leaf.find("speedup") != std::string::npos) return KeyClass::kSpeedup;
  if (leaf.find("overhead_ratio") != std::string::npos) {
    return KeyClass::kOverhead;
  }
  if (leaf == "seconds" ||
      (leaf.size() > 8 && leaf.compare(leaf.size() - 8, 8, "_seconds") == 0)) {
    return KeyClass::kTime;
  }
  if (leaf == "solutions") return KeyClass::kExact;
  // Matches runs.*.stats.table_scans and the fig10 derived keys like
  // adults_k2_qid8_basic_table_scans.
  if (leaf == "table_scans" ||
      (leaf.size() > 12 &&
       leaf.compare(leaf.size() - 12, 12, "_table_scans") == 0)) {
    return KeyClass::kTableScans;
  }
  return KeyClass::kCounter;
}

/// The speedup floor (see file header): true when `path` names an N-thread
/// speedup the baseline shows (old > 1.0) that has fallen to a third of
/// the way from 1.0 to it or below, with N within this machine's hardware
/// threads.
bool BelowScalingFloor(const std::string& path, double old_value,
                       double new_value) {
  static const std::string kSuffix = "speedup_threads_";
  const size_t at = path.rfind(kSuffix);
  if (at == std::string::npos || old_value <= 1.0 ||
      new_value > 1.0 + (old_value - 1.0) / 3.0) {
    return false;
  }
  int64_t threads = 0;
  if (!incognito::ParseInt64(path.substr(at + kSuffix.size()), &threads)) {
    return false;
  }
  const int64_t cores = std::thread::hardware_concurrency();
  return threads >= 2 && threads <= cores;
}

/// Flattens the numeric leaves of a JSON subtree into dotted key paths.
void FlattenNumbers(const JsonValue& node, const std::string& prefix,
                    std::map<std::string, double>* out) {
  if (node.is_number()) {
    (*out)[prefix] = node.num;
    return;
  }
  if (node.is_object()) {
    for (const auto& [key, child] : node.object) {
      FlattenNumbers(child, prefix.empty() ? key : prefix + "." + key, out);
    }
    return;
  }
  if (node.is_array()) {
    for (size_t i = 0; i < node.array.size(); ++i) {
      FlattenNumbers(node.array[i], StringPrintf("%s.%zu", prefix.c_str(), i),
                     out);
    }
  }
}

/// The comparison state threaded through every key check.
struct Diff {
  const Options& opts;
  int regressions = 0;
  int compared = 0;
  int skipped = 0;
  int improvements = 0;

  explicit Diff(const Options& options) : opts(options) {}

  bool Ignored(const std::string& path) const {
    for (const std::string& needle : opts.ignore) {
      if (needle.empty()) continue;
      // A leading '^' anchors the needle at the start of the path (so
      // "^counters" skips the cumulative process-wide section without
      // touching runs.*.counters); otherwise substring match.
      if (needle[0] == '^') {
        if (path.rfind(needle.substr(1), 0) == 0) return true;
      } else if (path.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  void Compare(const std::string& path, double old_value, double new_value) {
    if (Ignored(path)) {
      ++skipped;
      if (opts.list) {
        printf("ignored    %s\n", path.c_str());
      }
      return;
    }
    ++compared;
    switch (ClassifyKey(path)) {
      case KeyClass::kTime:
        if (old_value < opts.time_floor) {
          ++skipped;
          if (opts.list) {
            printf("below-floor %s (old=%g)\n", path.c_str(), old_value);
          }
          return;
        }
        if (new_value > old_value * (1.0 + opts.time_threshold)) {
          Regress(path, old_value, new_value);
        } else if (opts.list && new_value < old_value) {
          Improve(path, old_value, new_value);
        }
        return;
      case KeyClass::kSpeedup:
        if (new_value < old_value * (1.0 - opts.speedup_threshold) ||
            BelowScalingFloor(path, old_value, new_value)) {
          Regress(path, old_value, new_value);
        } else if (opts.list && new_value > old_value) {
          Improve(path, old_value, new_value);
        }
        return;
      case KeyClass::kOverhead:
        // Absolute contract: the ratio itself must stay within the
        // allowance of 1.0; the baseline value only informs --list.
        if (new_value > 1.0 + opts.overhead_threshold) {
          Regress(path, old_value, new_value);
        } else if (opts.list && new_value < old_value) {
          Improve(path, old_value, new_value);
        }
        return;
      case KeyClass::kExact:
        if (new_value != old_value) {
          Regress(path, old_value, new_value);
        }
        return;
      case KeyClass::kTableScans:
        // Lower is better: the scan-sharing evaluator may only shrink
        // scan counts, so any growth is a regression.
        if (new_value > old_value) {
          Regress(path, old_value, new_value);
        } else if (opts.list && new_value < old_value) {
          Improve(path, old_value, new_value);
        }
        return;
      case KeyClass::kCounter:
        if (new_value > old_value * (1.0 + opts.counter_threshold) &&
            new_value > old_value) {
          Regress(path, old_value, new_value);
        } else if (opts.list && new_value < old_value) {
          Improve(path, old_value, new_value);
        }
        return;
    }
  }

  void Missing(const std::string& path) {
    if (Ignored(path)) {
      ++skipped;
      return;
    }
    ++regressions;
    printf("REGRESSION %s: present in OLD, missing from NEW\n", path.c_str());
  }

 private:
  void Regress(const std::string& path, double old_value, double new_value) {
    ++regressions;
    double pct = old_value != 0 ? (new_value - old_value) / old_value * 100.0
                                : 0.0;
    printf("REGRESSION %s: old=%g new=%g (%+.1f%%)\n", path.c_str(),
           old_value, new_value, pct);
  }

  void Improve(const std::string& path, double old_value, double new_value) {
    ++improvements;
    printf("improved   %s: old=%g new=%g\n", path.c_str(), old_value,
           new_value);
  }
};

/// Compares two flattened key sets under one path prefix.
void CompareFlat(const std::string& prefix, const JsonValue& old_node,
                 const JsonValue& new_node, Diff* diff) {
  std::map<std::string, double> old_flat;
  std::map<std::string, double> new_flat;
  FlattenNumbers(old_node, prefix, &old_flat);
  FlattenNumbers(new_node, prefix, &new_flat);
  for (const auto& [path, old_value] : old_flat) {
    auto it = new_flat.find(path);
    if (it == new_flat.end()) {
      diff->Missing(path);
    } else {
      diff->Compare(path, old_value, it->second);
    }
  }
}

/// The (database, k, qid_size, algorithm) identity that matches a run
/// across the two reports.
std::string RunKey(const JsonValue& run) {
  const JsonValue* database = run.Find("database");
  const JsonValue* k = run.Find("k");
  const JsonValue* qid_size = run.Find("qid_size");
  const JsonValue* algorithm = run.Find("algorithm");
  return StringPrintf(
      "%s/k=%lld/qid=%lld/%s",
      database != nullptr ? database->StringOr("?").c_str() : "?",
      static_cast<long long>(k != nullptr ? k->NumberOr(-1) : -1),
      static_cast<long long>(qid_size != nullptr ? qid_size->NumberOr(-1)
                                                 : -1),
      algorithm != nullptr ? algorithm->StringOr("?").c_str() : "?");
}

int Usage() {
  fprintf(stderr,
          "usage: bench_diff OLD.json NEW.json [--time-threshold=R] "
          "[--speedup-threshold=R] [--counter-threshold=R] "
          "[--overhead-threshold=R] "
          "[--time-floor=S] [--ignore=SUBSTR,...] [--list]\n"
          "see the header of tools/bench_diff.cpp for the full contract\n");
  return 2;
}

/// Reads and parses one report; fills `doc` or returns the exit code.
int LoadReport(const char* path, JsonValue* doc) {
  std::ifstream in(path);
  if (!in.good()) {
    fprintf(stderr, "error: cannot read %s\n", path);
    return 4;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!ParseJson(buffer.str(), doc, &error)) {
    fprintf(stderr, "error: %s is not valid JSON: %s\n", path, error.c_str());
    return 3;
  }
  if (!doc->is_object() || doc->Find("runs") == nullptr ||
      !doc->Find("runs")->is_array()) {
    fprintf(stderr, "error: %s is not a BENCH_*.json report (no runs array)\n",
            path);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(argv[i]);
      continue;
    }
    size_t eq = arg.find('=');
    std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos
                                                             : eq - 2);
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const std::map<std::string, double*> numeric = {
        {"time-threshold", &opts.time_threshold},
        {"speedup-threshold", &opts.speedup_threshold},
        {"counter-threshold", &opts.counter_threshold},
        {"overhead-threshold", &opts.overhead_threshold},
        {"time-floor", &opts.time_floor}};
    auto number = numeric.find(name);
    if (number != numeric.end()) {
      if (!incognito::ParseDouble(value, number->second)) {
        fprintf(stderr, "error: bad --%s value '%s' (want a number)\n",
                name.c_str(), value.c_str());
        return Usage();
      }
    } else if (name == "ignore") {
      for (const std::string& needle : Split(value, ',')) {
        if (!needle.empty()) opts.ignore.push_back(needle);
      }
    } else if (name == "list") {
      opts.list = true;
    } else {
      fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }
  if (positional.size() != 2) return Usage();

  JsonValue old_doc;
  JsonValue new_doc;
  int code = LoadReport(positional[0], &old_doc);
  if (code != 0) return code;
  code = LoadReport(positional[1], &new_doc);
  if (code != 0) return code;

  const JsonValue* old_bench = old_doc.Find("bench");
  const JsonValue* new_bench = new_doc.Find("bench");
  if (old_bench != nullptr && new_bench != nullptr &&
      old_bench->StringOr("") != new_bench->StringOr("")) {
    fprintf(stderr, "error: comparing different benches ('%s' vs '%s')\n",
            old_bench->StringOr("").c_str(), new_bench->StringOr("").c_str());
    return 3;
  }

  Diff diff(opts);

  // Per-run comparison, matched by identity. Identity strings themselves
  // never enter the numeric comparison (RunKey consumes them).
  std::map<std::string, const JsonValue*> new_runs;
  for (const JsonValue& run : new_doc.Find("runs")->array) {
    new_runs[RunKey(run)] = &run;
  }
  for (const JsonValue& run : old_doc.Find("runs")->array) {
    std::string key = RunKey(run);
    auto it = new_runs.find(key);
    if (it == new_runs.end()) {
      diff.Missing("runs." + key);
      continue;
    }
    for (const char* section :
         {"seconds", "solutions", "stats", "counters", "phase_seconds",
          "histograms"}) {
      const JsonValue* old_section = run.Find(section);
      if (old_section == nullptr) continue;
      const JsonValue* new_section = it->second->Find(section);
      std::string prefix = "runs." + key + "." + section;
      if (new_section == nullptr) {
        diff.Missing(prefix);
        continue;
      }
      CompareFlat(prefix, *old_section, *new_section, &diff);
    }
  }

  // Derived cross-run scalars (speedups) and the cumulative process-wide
  // counter/gauge sections.
  for (const char* section : {"derived", "counters", "gauges"}) {
    const JsonValue* old_section = old_doc.Find(section);
    if (old_section == nullptr) continue;
    const JsonValue* new_section = new_doc.Find(section);
    if (new_section == nullptr) {
      diff.Missing(section);
      continue;
    }
    CompareFlat(section, *old_section, *new_section, &diff);
  }

  printf("%d keys compared, %d regressions, %d skipped%s\n", diff.compared,
         diff.regressions, diff.skipped,
         diff.regressions == 0 ? " -- OK" : "");
  return diff.regressions == 0 ? 0 : 1;
}
