// incognito_cli — command-line anonymizer over CSV files.
//
// Subcommands, and the flags each accepts (the groups are described below):
//   check       test whether a table satisfies k-anonymity (and optionally
//               distinct ℓ-diversity) at given generalization levels:
//               problem flags, --levels=L1,L2,..., --l=N with
//               --sensitive=COL, --threads, governance, observability
//   enumerate   list every k-anonymous full-domain generalization with
//               quality metrics: problem flags, parallel search,
//               governance, checkpointing, observability
//   anonymize   pick a minimal generalization and write the released view:
//               enumerate's flags, --output=FILE, and optionally
//               --levels=L1,L2,... (release that node; no search) or
//               --weights=W1,W2,... (minimal by weighted height, one
//               weight per QID attribute, instead of by height)
//   models      run every §5 taxonomy model and compare release quality:
//               problem flags, parallel search, governance, observability,
//               model comparison
//   hierarchy   generate a hierarchy CSV for a column with a builder rule:
//               --input=FILE --column=COL --spec=SPEC --output=FILE
//   serve       run the resident multi-tenant anonymization daemon behind
//               a newline-delimited-JSON Unix socket (docs/SERVICE.md;
//               submit jobs with tools/incognito_client.cpp): daemon flags
//
// Every subcommand also accepts --fault-script (see Resource governance).
// Any other --name, or a bare argument, is a usage error: exit 2 with
// "error: unknown flag --name".
//
// Problem flags (check, enumerate, anonymize, models):
//   --input=FILE --qid=Col1,Col2,... --hierarchies=COL=SPEC,...
//   --k=N            (default 2)
//   --suppress=N     tuples that may be suppressed (default 0)
//
// Hierarchy specifications (--hierarchies=COL=SPEC,COL=SPEC,...):
//   file:PATH            load an ARX-style hierarchy CSV (';'-separated)
//   suppress             one-level suppression to '*'
//   interval:W1:W2:...   nested integer ranges plus a '*' top
//   digits:NUM:LEVELS    fixed-width digit rounding (e.g. digits:5:3)
//   date                 YYYY-MM-DD → YYYY-MM → YYYY → '*'
//
// Observability (check, enumerate, anonymize, models; see
// docs/OBSERVABILITY.md):
//   --stats          print the run's AlgorithmStats counters plus the
//                    sorted counter/gauge/histogram deltas on stdout
//   --stats=json     the same data as one JSON object on stdout
//   --trace=FILE     write a Chrome trace_event JSON (chrome://tracing,
//                    Perfetto) of the run's instrumented spans and, on
//                    parallel runs, per-worker scheduler swimlanes
//   --trace-capacity=N      cap the trace buffer at N events (default
//                    262144; overflow is counted, not grown)
//   --report=FILE    write a machine-readable RunReport JSON (config,
//                    dataset shape, counters, histograms, per-phase span
//                    rollups, scheduler telemetry)
//   --sample-interval-ms=N  sample process RSS and CPU every N ms on a
//                    background thread; emits trace counter tracks and
//                    peak_rss_bytes / cpu_seconds report fields
//
// Parallel search (enumerate, anonymize, models; check takes --threads):
//   --threads=N      run the subset-DAG search — and, inside a node, the
//                    frequency-set scan and the cube build — with N worker
//                    threads (1-256; results are bit-identical at every
//                    count, see docs/PARALLELISM.md)
//   --variant=V      Incognito variant: basic (default), superroots, or
//                    cube
//   --no-batch-scan  disable scan-sharing batched level evaluation (one
//                    table scan per scan-required node instead of one per
//                    (subset, level) batch; see docs/PARALLELISM.md
//                    "Scan-sharing batch evaluation"). Results are
//                    identical either way; this is an ablation switch.
//
// Resource governance (check, enumerate, anonymize, models):
//   --deadline-ms=N       stop the search after N milliseconds
//   --memory-budget-mb=N  cap the search's accounted structures at N MiB
//   --on-budget=fail      (default) a tripped budget exits with code 5
//   --on-budget=partial   a tripped budget releases whatever was proven
//                         before the trip (exit 0, warning on stderr)
//   --fault-script=SPEC   arm the fault injector ("SITE:N", "kill:SITE:N",
//                         or "rand:SEED:PROB"; needs -DINCOGNITO_FAULTS=ON;
//                         every subcommand)
//
// Crash-safe checkpointing (enumerate, anonymize; see docs/ROBUSTNESS.md
// "Checkpoint format & recovery contract"):
//   --checkpoint=FILE     write a versioned, CRC-checksummed snapshot of
//                         search progress after each completed unit (atomic
//                         temp+rename); also spilled when a budget trips
//   --checkpoint-interval-ms=N  minimum milliseconds between periodic
//                         checkpoint writes (default 0: every unit boundary)
//   --resume[=require]    resume from --checkpoint=FILE; a missing file is
//                         an I/O error (exit 4), a corrupt or incompatible
//                         checkpoint exits 3. Resumed runs are bit-identical
//                         to uninterrupted ones in survivors and counters.
//   --resume=auto         resume when a valid compatible checkpoint exists,
//                         otherwise silently start fresh
//
// All execution flags flow through one RunContext (core/run_context.h,
// docs/API.md) handed to every Run* entry point.
//
// Model comparison (models):
//   --model=NAME     run only the named model (incognito, datafly,
//                    subtree, ordered-set, mondrian, subgraph,
//                    cell-suppression, cell-generalization, koptimize);
//                    default runs all of them
//
// Daemon (serve; numbers are whole integers):
//   --socket=PATH            Unix socket to listen on (required)
//   --workers=N              job worker threads (1-256, default 2)
//   --queue-depth=N          queued jobs the daemon admits (default 64)
//   --tenant-quota=N         queued jobs per tenant (default 16)
//   --memory-limit-mb=N      lease pool shared by running jobs (default 0:
//                            unlimited)
//   --default-lease-mb=N     lease of a job without a memory budget
//                            (default 16)
//   --weights=T=W,T=W,...    weighted-fair share per tenant (W > 0;
//                            unlisted tenants weigh 1)
//
// Exit codes (docs/ROBUSTNESS.md):
//   0  success            3  invalid input / bad flag value
//   1  other failure      4  I/O error
//   2  usage error (unknown subcommand or flag)
//                         5  deadline/memory/cancel budget tripped
//
// Examples (one command each, wrapped here):
//   incognito_cli enumerate --input=adults.csv --k=5
//     --qid=Age,Gender,Zipcode
//     --hierarchies=Age=interval:5:10:20,Gender=suppress,Zipcode=digits:5:3
//   incognito_cli anonymize --input=adults.csv --output=out.csv --k=5
//     --qid=... --hierarchies=... [--suppress=25] [--levels=1,0,2]
//   incognito_cli check --input=... --qid=... --hierarchies=...
//     --levels=1,0,2 --k=5 [--l=3 --sensitive=Disease]
//   incognito_cli hierarchy --input=adults.csv --column=Age
//     --spec=interval:5:10:20 --output=age_hierarchy.csv

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/exec_profile.h"
#include "core/incognito.h"
#include "core/ldiversity.h"
#include "core/minimality.h"
#include "core/recoder.h"
#include "core/run_context.h"
#include "hierarchy/builders.h"
#include "hierarchy/csv_hierarchy.h"
#include "hierarchy/validation.h"
#include "metrics/metrics.h"
#include "models/cell_generalization.h"
#include "models/cell_suppression.h"
#include "models/datafly.h"
#include "models/koptimize.h"
#include "models/mondrian.h"
#include "models/ordered_set.h"
#include "models/subgraph.h"
#include "models/subtree.h"
#include "obs/counters.h"
#include "obs/json_util.h"
#include "obs/report.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "relation/binary_io.h"
#include "relation/csv.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "service/job_spec.h"
#include "service/problem_loader.h"
#include "service/server.h"
#include "service/service.h"

using namespace incognito;

namespace {

/// The --stats/--trace/--report/--sample-interval-ms wiring shared by
/// every subcommand. Subcommands fill in dataset shape and the run's
/// AlgorithmStats; main writes the trace and report files after the
/// subcommand returns.
struct ObsSession {
  enum class StatsMode { kOff, kText, kJson };

  ObsSession(const std::string& command,
             const std::map<std::string, std::string>& args)
      : report("incognito_cli", command) {
    auto get = [&args](const std::string& key) {
      auto it = args.find(key);
      return it == args.end() ? std::string() : it->second;
    };
    trace_path = get("trace");
    report_path = get("report");
    std::string stats_flag = get("stats");
    if (stats_flag == "json") {
      stats_mode = StatsMode::kJson;
    } else if (!stats_flag.empty()) {
      stats_mode = StatsMode::kText;
    }
    if (!get("input").empty()) report.SetString("input", get("input"));
    report.SetInt("k", atoll(get("k").empty() ? "2" : get("k").c_str()));
    if (!get("suppress").empty()) {
      report.SetInt("max_suppressed", atoll(get("suppress").c_str()));
    }
    std::string capacity = get("trace-capacity");
    if (!capacity.empty()) {
      obs::TraceRecorder::Global().SetCapacity(
          static_cast<size_t>(atoll(capacity.c_str())));
    }
    if (!trace_path.empty()) obs::TraceRecorder::Global().Enable();
    std::string interval = get("sample-interval-ms");
    if (!interval.empty()) {
      sampling = true;
      sampler.Start(atoll(interval.c_str()));
    }
    before = obs::MetricsSnapshot::Take();
  }

  void RecordStats(const AlgorithmStats& s) {
    stats = s;
    have_stats = true;
    if (stats_mode == StatsMode::kText) {
      printf("stats: %s\n", s.ToString().c_str());
    }
  }

  void RecordShape(const Table& table, const QuasiIdentifier& qid) {
    report.SetInt("rows", static_cast<int64_t>(table.num_rows()));
    report.SetInt("columns", static_cast<int64_t>(table.num_columns()));
    report.SetInt("qid_size", static_cast<int64_t>(qid.size()));
    report.SetInt("lattice_size", static_cast<int64_t>(qid.LatticeSize()));
  }

  /// Per-worker busy fractions from a parallel run (empty otherwise).
  void RecordUtilization(const std::vector<double>& utilization) {
    if (!utilization.empty()) {
      report.SetDoubleList("worker_utilization", utilization);
    }
  }

  /// The governor's own byte-accounting high-water mark, exported next to
  /// the sampler's peak RSS so the two can be cross-checked (the governor
  /// counts accounted structures; RSS counts the whole process).
  void RecordGovernorPeak(const ExecutionGovernor& governor) {
    report.SetInt("governor_peak_bytes", governor.memory().peak());
  }

  /// Writes --stats/--trace/--report outputs; returns 1 if a file write
  /// failed.
  int Finish(int exit_code) {
    int out = exit_code;
    sampler.Stop();
    obs::MetricsSnapshot delta =
        obs::MetricsSnapshot::Take().DeltaSince(before);
    if (stats_mode == StatsMode::kText) {
      PrintMetricsText(delta);
    } else if (stats_mode == StatsMode::kJson) {
      PrintMetricsJson(delta);
    }
    if (!trace_path.empty()) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
      if (sampling) sampler.ExportCounterEvents(recorder);
      recorder.Disable();
      Status s = recorder.WriteJson(trace_path);
      if (s.ok()) {
        fprintf(stderr, "wrote trace (%zu events, %llu dropped) to %s\n",
                recorder.num_events(),
                static_cast<unsigned long long>(recorder.dropped_events()),
                trace_path.c_str());
      } else {
        fprintf(stderr, "error: %s\n", s.ToString().c_str());
        if (out == 0) out = 1;
      }
    }
    if (!report_path.empty()) {
      report.SetInt("exit_code", exit_code);
      // Samples() is empty when the sampler is compiled out
      // (INCOGNITO_OBS_DISABLED: Start() never launches the thread) —
      // omit the fields rather than reporting a fake zero peak.
      if (sampling && !sampler.Samples().empty()) {
        report.SetInt("peak_rss_bytes", sampler.peak_rss_bytes());
        report.SetDouble("cpu_seconds", sampler.cpu_seconds());
        report.SetInt("resource_samples",
                      static_cast<int64_t>(sampler.Samples().size()));
      }
      uint64_t dropped = obs::TraceRecorder::Global().dropped_events();
      if (dropped > 0) {
        report.SetInt("trace_dropped_events",
                      static_cast<int64_t>(dropped));
      }
      if (have_stats) obs::AddAlgorithmStats(stats, &report);
      report.AddMetrics(delta);
      report.AddSpans(obs::TraceRecorder::Global());
      Status s = report.WriteFile(report_path);
      if (s.ok()) {
        fprintf(stderr, "wrote report to %s\n", report_path.c_str());
      } else {
        fprintf(stderr, "error: %s\n", s.ToString().c_str());
        if (out == 0) out = 1;
      }
    }
    return out;
  }

  /// Sorted text dump of the run's counter/gauge/histogram deltas (the
  /// maps are ordered, so the output order is stable across runs).
  static void PrintMetricsText(const obs::MetricsSnapshot& m) {
    for (const auto& [name, value] : m.counters) {
      printf("counter %s = %lld\n", name.c_str(),
             static_cast<long long>(value));
    }
    for (const auto& [name, value] : m.gauges) {
      printf("gauge %s = %.6f\n", name.c_str(), value);
    }
    for (const auto& [name, hist] : m.histograms) {
      printf("hist %s count=%lld p50=%.6fs p95=%.6fs p99=%.6fs max=%.6fs\n",
             name.c_str(), static_cast<long long>(hist.count),
             hist.PercentileSeconds(50), hist.PercentileSeconds(95),
             hist.PercentileSeconds(99), hist.MaxSeconds());
    }
  }

  /// The same data as one JSON object on stdout (--stats=json).
  void PrintMetricsJson(const obs::MetricsSnapshot& m) const {
    std::string out = "{";
    if (have_stats) {
      out += "\"algorithm_stats\": {";
      out += StringPrintf(
          "\"cancel_trips\": %lld, \"candidate_nodes\": %lld, "
          "\"checkpoint_bytes\": %lld, \"checkpoint_write_failures\": %lld, "
          "\"checkpoint_writes\": %lld, "
          "\"critical_path_seconds\": %s, \"cube_build_seconds\": %s, "
          "\"deadline_trips\": %lld, \"freq_groups_built\": %lld, "
          "\"governor_checks\": %lld, \"memory_trips\": %lld, "
          "\"nodes_checked\": %lld, \"nodes_marked\": %lld, "
          "\"parallel_workers\": %lld, "
          "\"restored_iterations\": %lld, \"restored_subsets\": %lld, "
          "\"rollups\": %lld, "
          "\"scheduler_idle_seconds\": %s, \"table_scans\": %lld, "
          "\"tasks_scheduled\": %lld, \"total_seconds\": %s",
          static_cast<long long>(stats.cancel_trips),
          static_cast<long long>(stats.candidate_nodes),
          static_cast<long long>(stats.checkpoint_bytes),
          static_cast<long long>(stats.checkpoint_write_failures),
          static_cast<long long>(stats.checkpoint_writes),
          obs::JsonDouble(stats.critical_path_seconds).c_str(),
          obs::JsonDouble(stats.cube_build_seconds).c_str(),
          static_cast<long long>(stats.deadline_trips),
          static_cast<long long>(stats.freq_groups_built),
          static_cast<long long>(stats.governor_checks),
          static_cast<long long>(stats.memory_trips),
          static_cast<long long>(stats.nodes_checked),
          static_cast<long long>(stats.nodes_marked),
          static_cast<long long>(stats.parallel_workers),
          static_cast<long long>(stats.restored_iterations),
          static_cast<long long>(stats.restored_subsets),
          static_cast<long long>(stats.rollups),
          obs::JsonDouble(stats.scheduler_idle_seconds).c_str(),
          static_cast<long long>(stats.table_scans),
          static_cast<long long>(stats.tasks_scheduled),
          obs::JsonDouble(stats.total_seconds).c_str());
      out += "}, ";
    }
    out += "\"counters\": {";
    bool first = true;
    for (const auto& [name, value] : m.counters) {
      out += StringPrintf("%s%s: %lld", first ? "" : ", ",
                          obs::JsonString(name).c_str(),
                          static_cast<long long>(value));
      first = false;
    }
    out += "}, \"gauges\": {";
    first = true;
    for (const auto& [name, value] : m.gauges) {
      out += StringPrintf("%s%s: %s", first ? "" : ", ",
                          obs::JsonString(name).c_str(),
                          obs::JsonDouble(value).c_str());
      first = false;
    }
    out += "}, \"histograms\": {";
    first = true;
    for (const auto& [name, hist] : m.histograms) {
      out += StringPrintf(
          "%s%s: {\"count\": %lld, \"p50_seconds\": %s, "
          "\"p95_seconds\": %s, \"p99_seconds\": %s, \"max_seconds\": %s, "
          "\"mean_seconds\": %s}",
          first ? "" : ", ", obs::JsonString(name).c_str(),
          static_cast<long long>(hist.count),
          obs::JsonDouble(hist.PercentileSeconds(50)).c_str(),
          obs::JsonDouble(hist.PercentileSeconds(95)).c_str(),
          obs::JsonDouble(hist.PercentileSeconds(99)).c_str(),
          obs::JsonDouble(hist.MaxSeconds()).c_str(),
          obs::JsonDouble(hist.MeanSeconds()).c_str());
      first = false;
    }
    out += "}}\n";
    fputs(out.c_str(), stdout);
  }

  obs::RunReport report;
  std::string trace_path;
  std::string report_path;
  StatsMode stats_mode = StatsMode::kOff;
  obs::ResourceSampler sampler;
  bool sampling = false;
  obs::MetricsSnapshot before;
  AlgorithmStats stats;
  bool have_stats = false;
};

int Usage() {
  fprintf(stderr,
          "usage: incognito_cli "
          "<check|enumerate|anonymize|models|hierarchy|serve> "
          "--input=FILE [options]\n"
          "see the header of tools/incognito_cli.cpp for full options\n");
  return 2;
}

/// Prints "error[CodeName]: message" on stderr and returns the exit code
/// from the shared contract (ExitCodeForStatus, src/common/status.h), so
/// scripts can branch on the class of failure.
int Fail(const Status& status) {
  fprintf(stderr, "error[%s]: %s\n", StatusCodeName(status.code()),
          status.message().c_str());
  return ExitCodeForStatus(status.code());
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& def = "");

/// The --deadline-ms/--memory-budget-mb/--on-budget flag values, parsed
/// into the shared ExecProfile (core/exec_profile.h) that also backs the
/// service daemon's JobSpec translation — the arming rules live there.
struct GovernanceOptions {
  ExecProfile profile;
  bool partial_ok = false;  // --on-budget=partial

  /// Any budget flag was given.
  bool enabled() const { return profile.governed(); }

  /// Assembles the RunContext every Run* call in a subcommand shares.
  /// `governor` is the caller's stack slot (the context only borrows it);
  /// it is armed and attached only when a budget flag was given. Trips
  /// latch, so governed subcommands making several runs arm a fresh
  /// governor per run.
  RunContext MakeContext(ExecutionGovernor* governor,
                         int num_threads) const {
    ExecProfile p = profile;
    p.num_threads = num_threads;
    return p.MakeContext(governor);
  }
};

Result<GovernanceOptions> ParseGovernance(
    const std::map<std::string, std::string>& args) {
  GovernanceOptions opts;
  std::string deadline = Get(args, "deadline-ms");
  if (!deadline.empty()) {
    if (!ParseInt64(deadline, &opts.profile.deadline_ms) ||
        opts.profile.deadline_ms < 0) {
      return Status::InvalidArgument("bad --deadline-ms value '" + deadline +
                                     "' (want a non-negative integer)");
    }
  }
  std::string budget = Get(args, "memory-budget-mb");
  if (!budget.empty()) {
    int64_t memory_budget_mb = 0;
    if (!ParseInt64(budget, &memory_budget_mb) || memory_budget_mb <= 0 ||
        memory_budget_mb > (INT64_MAX >> 20)) {
      return Status::InvalidArgument("bad --memory-budget-mb value '" +
                                     budget + "' (want a positive integer)");
    }
    opts.profile.memory_budget_bytes = memory_budget_mb << 20;
  }
  std::string on_budget = Get(args, "on-budget", "fail");
  if (on_budget == "partial") {
    opts.partial_ok = true;
  } else if (on_budget != "fail") {
    return Status::InvalidArgument("bad --on-budget value '" + on_budget +
                                   "' (want fail or partial)");
  }
  return opts;
}

/// The --threads flag (worker count for the parallel search,
/// core/parallel.h; on `check` it fans out the single scan) and the
/// --variant flag (which Incognito variant to run). Defaults: 1 thread,
/// basic variant.
Result<IncognitoOptions> ParseRunOptions(
    const std::map<std::string, std::string>& args) {
  IncognitoOptions opts;
  std::string threads = Get(args, "threads");
  if (!threads.empty()) {
    int64_t n = 0;
    if (!ParseInt64(threads, &n) || n < 1 || n > kMaxThreads) {
      return Status::InvalidArgument(StringPrintf(
          "bad --threads value '%s' (want an integer in [1, %d])",
          threads.c_str(), kMaxThreads));
    }
    opts.num_threads = static_cast<int>(n);
  }
  std::string variant = Get(args, "variant");
  if (!variant.empty() && !ParseVariantWireName(variant, &opts.variant)) {
    return Status::InvalidArgument("bad --variant value '" + variant +
                                   "' (want basic, superroots, or cube)");
  }
  if (!Get(args, "no-batch-scan").empty()) opts.batch_scans = false;
  return opts;
}

/// The --checkpoint/--checkpoint-interval-ms/--resume flags
/// (docs/ROBUSTNESS.md "Checkpoint format & recovery contract"). The
/// policy is inert unless --checkpoint=FILE is given.
Result<CheckpointPolicy> ParseCheckpointPolicy(
    const std::map<std::string, std::string>& args) {
  CheckpointPolicy policy;
  policy.path = Get(args, "checkpoint");
  std::string interval = Get(args, "checkpoint-interval-ms");
  if (!interval.empty()) {
    if (policy.path.empty()) {
      return Status::InvalidArgument(
          "--checkpoint-interval-ms requires --checkpoint=FILE");
    }
    if (!ParseInt64(interval, &policy.interval_ms) ||
        policy.interval_ms < 0) {
      return Status::InvalidArgument(
          "bad --checkpoint-interval-ms value '" + interval +
          "' (want a non-negative integer)");
    }
  }
  std::string resume = Get(args, "resume");
  if (!resume.empty()) {
    if (policy.path.empty()) {
      return Status::InvalidArgument("--resume requires --checkpoint=FILE");
    }
    if (resume == "true" || resume == "require") {
      policy.resume = ResumeMode::kRequire;
    } else if (resume == "auto") {
      policy.resume = ResumeMode::kAuto;
    } else {
      return Status::InvalidArgument("bad --resume value '" + resume +
                                     "' (want auto or require)");
    }
  }
  return policy;
}

/// The flags `command` reads, as the file header documents them; empty
/// for an unknown subcommand.
std::set<std::string> SubcommandFlags(const std::string& command) {
  if (command == "hierarchy") {
    return {"input", "column", "spec", "output", "fault-script"};
  }
  if (command == "serve") {
    return {"socket", "workers", "queue-depth", "tenant-quota",
            "memory-limit-mb", "default-lease-mb", "weights",
            "fault-script"};
  }
  // The problem, parallel-search, governance and observability flags that
  // every search subcommand reads.
  std::set<std::string> flags = {
      "input", "qid", "hierarchies", "k", "suppress", "threads",
      "deadline-ms", "memory-budget-mb", "on-budget", "fault-script",
      "stats", "trace", "trace-capacity", "report", "sample-interval-ms"};
  if (command == "check") {
    flags.insert({"levels", "l", "sensitive"});
  } else if (command == "enumerate" || command == "anonymize") {
    flags.insert({"variant", "no-batch-scan", "checkpoint",
                  "checkpoint-interval-ms", "resume"});
    if (command == "anonymize") flags.insert({"output", "levels", "weights"});
  } else if (command == "models") {
    flags.insert({"variant", "no-batch-scan", "model"});
  } else {
    return {};
  }
  return flags;
}

/// Parses argv[2..] as --name=value flags (a bare --name reads "true")
/// into `args`. Returns false after printing "error: unknown flag ..." on
/// the first argument that is not one of the `allowed` flags.
bool ParseArgs(int argc, char** argv, const std::set<std::string>& allowed,
               std::map<std::string, std::string>* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name =
        arg.rfind("--", 0) == 0 ? arg.substr(2, eq - 2) : std::string();
    if (allowed.count(name) == 0) {
      fprintf(stderr, "error: unknown flag %s\n", arg.substr(0, eq).c_str());
      return false;
    }
    (*args)[name] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
  }
  return true;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& def) {
  auto it = args.find(key);
  return it == args.end() ? def : it->second;
}

/// Builds one hierarchy from a spec string (see file header). Thin shim
/// over the library's shared implementation (service/problem_loader.h) so
/// the CLI, the daemon, and the client resolve specs identically.
Result<ValueHierarchy> BuildFromSpec(const std::string& column,
                                     const std::string& spec,
                                     const Dictionary& dict) {
  return BuildHierarchyFromSpec(column, spec, dict);
}

/// Loads the table and assembles the quasi-identifier from --qid and
/// --hierarchies by delegating to the shared problem loader.
Result<LoadedProblem> Load(const std::map<std::string, std::string>& args) {
  std::string input = Get(args, "input");
  if (input.empty()) return Status::InvalidArgument("--input is required");
  std::vector<std::string> qid_names = Split(Get(args, "qid"), ',');
  if (qid_names.empty() || qid_names[0].empty()) {
    return Status::InvalidArgument("--qid=Col1,Col2,... is required");
  }
  std::map<std::string, std::string> specs;
  for (const std::string& entry : Split(Get(args, "hierarchies"), ',')) {
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad --hierarchies entry '" + entry +
                                     "' (want COL=SPEC)");
    }
    specs[entry.substr(0, eq)] = entry.substr(eq + 1);
  }
  return LoadProblem(input, qid_names, specs);
}

Result<SubsetNode> ParseLevels(const std::map<std::string, std::string>& args,
                               const QuasiIdentifier& qid) {
  std::vector<std::string> parts = Split(Get(args, "levels"), ',');
  if (parts.size() != qid.size()) {
    return Status::InvalidArgument(
        "--levels must list one level per quasi-identifier attribute");
  }
  std::vector<int32_t> levels;
  for (const std::string& p : parts) {
    int64_t v = 0;
    if (!ParseInt64(p, &v) || v < INT32_MIN || v > INT32_MAX) {
      return Status::InvalidArgument("bad level '" + p + "'");
    }
    levels.push_back(static_cast<int32_t>(v));
  }
  SubsetNode node = SubsetNode::Full(std::move(levels));
  INCOGNITO_RETURN_IF_ERROR(CheckFullQidNode(qid, node));
  return node;
}

/// Parses integer flag `key` (default `def`) as a whole decimal string,
/// in [min, max].
Result<int64_t> IntFlag(const std::map<std::string, std::string>& args,
                        const std::string& key, const std::string& def,
                        int64_t min = INT64_MIN, int64_t max = INT64_MAX) {
  const std::string text = Get(args, key, def);
  int64_t v = 0;
  if (!ParseInt64(text, &v)) {
    return Status::InvalidArgument("bad --" + key + " value '" + text + "'");
  }
  if (v < min || v > max) {
    return Status::InvalidArgument(StringPrintf(
        "bad --%s value '%s' (want an integer in [%lld, %lld])", key.c_str(),
        text.c_str(), static_cast<long long>(min),
        static_cast<long long>(max)));
  }
  return v;
}

/// --k (default 2, at least 1) and --suppress (default 0, at least 0).
Result<AnonymizationConfig> ConfigFrom(
    const std::map<std::string, std::string>& args) {
  Result<int64_t> k = IntFlag(args, "k", "2");
  if (!k.ok()) return k.status();
  Result<int64_t> suppress = IntFlag(args, "suppress", "0");
  if (!suppress.ok()) return suppress.status();
  if (k.value() < 1) return Status::InvalidArgument("k must be >= 1");
  if (suppress.value() < 0) {
    return Status::InvalidArgument("--suppress must be >= 0");
  }
  AnonymizationConfig config;
  config.k = k.value();
  config.max_suppressed = suppress.value();
  return config;
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int CmdCheck(const std::map<std::string, std::string>& args,
             ObsSession* obs) {
  Result<LoadedProblem> problem = Load(args);
  if (!problem.ok()) return Fail(problem.status());
  obs->RecordShape(problem->table, problem->qid);
  Result<SubsetNode> node = ParseLevels(args, problem->qid);
  if (!node.ok()) return Fail(node.status());
  Result<GovernanceOptions> gov = ParseGovernance(args);
  if (!gov.ok()) return Fail(gov.status());
  Result<IncognitoOptions> run_opts = ParseRunOptions(args);
  if (!run_opts.ok()) return Fail(run_opts.status());
  Result<AnonymizationConfig> parsed = ConfigFrom(args);
  if (!parsed.ok()) return Fail(parsed.status());
  const AnonymizationConfig config = parsed.value();

  // Optional distinct ℓ-diversity check against a sensitive column; its
  // arguments are checked before any work.
  const std::string sensitive = Get(args, "sensitive");
  if (sensitive.empty() != (args.count("l") == 0)) {
    return Fail(Status::InvalidArgument(
        "--l=N and --sensitive=COLUMN must be given together"));
  }
  std::optional<DiversityKey> key;
  LDiversityConfig lconfig;
  if (!sensitive.empty()) {
    Result<int64_t> l = IntFlag(args, "l", "");
    if (!l.ok()) return Fail(l.status());
    lconfig.k = config.k;
    lconfig.l = l.value();
    lconfig.max_suppressed = config.max_suppressed;
    lconfig.sensitive_attribute = sensitive;
    Result<DiversityKey> made =
        DiversityKey::Create(problem->table, problem->qid, lconfig);
    if (!made.ok()) return Fail(made.status());
    key = std::move(made).value();
  }

  AlgorithmStats stats;
  bool ok;
  if (gov->enabled()) {
    // A single-node check has no meaningful partial answer, so a budget
    // trip always fails here regardless of --on-budget.
    ExecutionGovernor governor;
    Result<bool> governed = IsKAnonymous(
        problem->table, problem->qid, node.value(), config,
        gov->MakeContext(&governor, run_opts->num_threads), &stats);
    obs->RecordGovernorPeak(governor);
    if (!governed.ok()) {
      obs->RecordStats(stats);
      return Fail(governed.status());
    }
    ok = governed.value();
  } else {
    ok = IsKAnonymous(problem->table, problem->qid, node.value(), config,
                      &stats, run_opts->num_threads);
  }
  printf("%s at %s: %lld-anonymous = %s\n", Get(args, "input").c_str(),
         node->ToString(&problem->qid).c_str(),
         static_cast<long long>(config.k), ok ? "yes" : "NO");
  obs->RecordStats(stats);

  if (key.has_value()) {
    const bool diverse =
        key->Compute(problem->table, node.value())
            .TuplesViolatingDiversity(lconfig.k, lconfig.l) <=
        lconfig.max_suppressed;
    printf("%s at %s: distinct %lld-diverse (sensitive=%s) = %s\n",
           Get(args, "input").c_str(),
           node->ToString(&problem->qid).c_str(),
           static_cast<long long>(lconfig.l), sensitive.c_str(),
           diverse ? "yes" : "NO");
    ok = ok && diverse;
  }
  return ok ? 0 : 1;
}

int CmdEnumerate(const std::map<std::string, std::string>& args,
                 ObsSession* obs) {
  Result<LoadedProblem> problem = Load(args);
  if (!problem.ok()) return Fail(problem.status());
  obs->RecordShape(problem->table, problem->qid);
  Result<GovernanceOptions> gov = ParseGovernance(args);
  if (!gov.ok()) return Fail(gov.status());
  Result<IncognitoOptions> run_opts = ParseRunOptions(args);
  if (!run_opts.ok()) return Fail(run_opts.status());
  Result<CheckpointPolicy> ckpt = ParseCheckpointPolicy(args);
  if (!ckpt.ok()) return Fail(ckpt.status());
  Result<AnonymizationConfig> parsed = ConfigFrom(args);
  if (!parsed.ok()) return Fail(parsed.status());
  const AnonymizationConfig config = parsed.value();
  ExecutionGovernor governor;
  RunContext ctx = gov->MakeContext(&governor, run_opts->num_threads);
  if (ckpt->enabled()) ctx.checkpoint = &ckpt.value();
  PartialResult<IncognitoResult> result =
      RunIncognito(problem->table, problem->qid, config, *run_opts, ctx);
  if (result.hard_error()) return Fail(result.status());
  if (gov->enabled()) obs->RecordGovernorPeak(governor);
  obs->RecordUtilization(result->worker_utilization);
  if (result.partial()) {
    if (!gov->partial_ok) {
      obs->RecordStats(result->stats);
      return Fail(result.status());
    }
    fprintf(stderr, "warning[%s]: %s; releasing the partial enumeration\n",
            StatusCodeName(result.status().code()),
            result.status().message().c_str());
  }
  obs->RecordStats(result->stats);
  obs->report.SetInt("solutions",
                     static_cast<int64_t>(result->anonymous_nodes.size()));
  printf("%zu %lld-anonymous full-domain generalizations (%s)\n",
         result->anonymous_nodes.size(), static_cast<long long>(config.k),
         result->stats.ToString().c_str());
  printf("%-48s %7s %9s %10s %8s %8s %11s\n", "generalization", "height",
         "classes", "avg class", "Prec", "LM", "suppressed");
  for (const SubsetNode& node : result->anonymous_nodes) {
    Result<QualityReport> q =
        EvaluateFullDomain(problem->table, problem->qid, node, config);
    if (!q.ok()) continue;
    printf("%-48s %7d %9lld %10.1f %8.4f %8.4f %11lld\n",
           node.ToString(&problem->qid).c_str(), q->height,
           static_cast<long long>(q->num_classes), q->avg_class_size,
           q->precision, q->loss_metric,
           static_cast<long long>(q->suppressed));
  }
  return 0;
}

int CmdAnonymize(const std::map<std::string, std::string>& args,
                 ObsSession* obs) {
  Result<LoadedProblem> problem = Load(args);
  if (!problem.ok()) return Fail(problem.status());
  obs->RecordShape(problem->table, problem->qid);
  Result<GovernanceOptions> gov = ParseGovernance(args);
  if (!gov.ok()) return Fail(gov.status());
  Result<IncognitoOptions> run_opts = ParseRunOptions(args);
  if (!run_opts.ok()) return Fail(run_opts.status());
  Result<CheckpointPolicy> ckpt = ParseCheckpointPolicy(args);
  if (!ckpt.ok()) return Fail(ckpt.status());
  Result<AnonymizationConfig> parsed = ConfigFrom(args);
  if (!parsed.ok()) return Fail(parsed.status());
  const AnonymizationConfig config = parsed.value();
  std::string output = Get(args, "output");
  if (output.empty()) {
    return Fail(Status::InvalidArgument("--output is required"));
  }

  SubsetNode chosen;
  if (args.count("levels") > 0) {
    Result<SubsetNode> node = ParseLevels(args, problem->qid);
    if (!node.ok()) return Fail(node.status());
    chosen = std::move(node).value();
  } else {
    ExecutionGovernor governor;
    RunContext ctx = gov->MakeContext(&governor, run_opts->num_threads);
    if (ckpt->enabled()) ctx.checkpoint = &ckpt.value();
    PartialResult<IncognitoResult> result =
        RunIncognito(problem->table, problem->qid, config, *run_opts, ctx);
    if (result.hard_error()) return Fail(result.status());
    if (gov->enabled()) obs->RecordGovernorPeak(governor);
    obs->RecordUtilization(result->worker_utilization);
    obs->RecordStats(result->stats);
    if (result.partial()) {
      // A partial enumeration may have proven no node yet; with
      // --on-budget=partial we release a view only when one exists.
      if (!gov->partial_ok || result->anonymous_nodes.empty()) {
        return Fail(result.status());
      }
      fprintf(stderr,
              "warning[%s]: %s; choosing among the %zu generalizations "
              "proven before the trip\n",
              StatusCodeName(result.status().code()),
              result.status().message().c_str(),
              result->anonymous_nodes.size());
    }
    if (result->anonymous_nodes.empty()) {
      fprintf(stderr,
              "no %lld-anonymous full-domain generalization exists (even "
              "fully generalized)\n",
              static_cast<long long>(config.k));
      return 1;
    }
    std::vector<SubsetNode> minimal;
    std::string weights_arg = Get(args, "weights");
    if (!weights_arg.empty()) {
      std::vector<double> weights;
      for (const std::string& w : Split(weights_arg, ',')) {
        double weight = 0;
        if (!ParseDouble(w, &weight)) {
          return Fail(Status::InvalidArgument("bad --weights entry '" + w +
                                              "' (want a number)"));
        }
        weights.push_back(weight);
      }
      Result<std::vector<SubsetNode>> weighted = MinimalByWeight(
          result->anonymous_nodes, weights, problem->qid);
      if (!weighted.ok()) return Fail(weighted.status());
      minimal = std::move(weighted).value();
    } else {
      minimal = MinimalByHeight(result->anonymous_nodes);
    }
    chosen = minimal.front();
  }

  Result<RecodeResult> view = ApplyFullDomainGeneralization(
      problem->table, problem->qid, chosen, config);
  if (!view.ok()) return Fail(view.status());
  Status written = WriteCsv(view->view, output);
  if (!written.ok()) return Fail(written);
  printf("wrote %zu rows to %s using %s (%lld tuples suppressed)\n",
         view->view.num_rows(), output.c_str(),
         chosen.ToString(&problem->qid).c_str(),
         static_cast<long long>(view->suppressed_tuples));
  return 0;
}

int CmdHierarchy(const std::map<std::string, std::string>& args) {
  std::string input = Get(args, "input");
  std::string column = Get(args, "column");
  std::string spec = Get(args, "spec");
  std::string output = Get(args, "output");
  if (input.empty() || column.empty() || spec.empty() || output.empty()) {
    return Fail(Status::InvalidArgument(
        "hierarchy needs --input, --column, --spec, --output"));
  }
  Result<Table> table = ReadCsv(input);
  if (!table.ok()) return Fail(table.status());
  Result<size_t> col = table->schema().ColumnIndex(column);
  if (!col.ok()) return Fail(col.status());
  Result<ValueHierarchy> h =
      BuildFromSpec(column, spec, table->dictionary(col.value()));
  if (!h.ok()) return Fail(h.status());
  Status written = WriteHierarchyCsv(h.value(), output);
  if (!written.ok()) return Fail(written);
  printf("wrote hierarchy for '%s' (%zu values, height %zu) to %s\n",
         column.c_str(), h->DomainSize(0), h->height(), output.c_str());
  return 0;
}

int CmdModels(const std::map<std::string, std::string>& args,
              ObsSession* obs) {
  Result<LoadedProblem> problem = Load(args);
  if (!problem.ok()) return Fail(problem.status());
  obs->RecordShape(problem->table, problem->qid);
  Result<GovernanceOptions> gov = ParseGovernance(args);
  if (!gov.ok()) return Fail(gov.status());
  Result<IncognitoOptions> run_opts = ParseRunOptions(args);
  if (!run_opts.ok()) return Fail(run_opts.status());
  Result<AnonymizationConfig> parsed = ConfigFrom(args);
  if (!parsed.ok()) return Fail(parsed.status());
  const AnonymizationConfig config = parsed.value();
  std::vector<std::string> cols;
  for (size_t i = 0; i < problem->qid.size(); ++i) {
    cols.push_back(problem->qid.name(i));
  }
  const int64_t rows = static_cast<int64_t>(problem->table.num_rows());
  auto report = [&](const char* model, const Table& view) {
    Result<QualityReport> q = EvaluateView(view, cols, rows);
    if (!q.ok()) return;
    printf("%-28s %9lld %11.1f %14.4g %10lld\n", model,
           static_cast<long long>(q->num_classes), q->avg_class_size,
           q->discernibility, static_cast<long long>(q->suppressed));
  };
  // --model=NAME filter; `matched` distinguishes a filtered-out model
  // list from a typo in the name (the latter exits 3 below).
  const std::string only = Get(args, "model");
  bool matched = false;
  auto wanted = [&](const char* name) {
    if (!only.empty() && only != name) return false;
    matched = true;
    return true;
  };
  // Applies the --on-budget policy to one governed model run: hard errors
  // and (without --on-budget=partial) budget trips skip the row with a
  // note; accepted partials carry a warning. Returns whether the row's
  // partial view may be reported (each model's partial contract is
  // documented on its Run* entry point).
  auto accept = [&](const char* model, const Status& status, bool partial) {
    if (status.ok()) return true;
    if (partial && gov->partial_ok) {
      fprintf(stderr, "warning[%s]: %s; %s reports its partial release\n",
              StatusCodeName(status.code()), status.message().c_str(),
              model);
      return true;
    }
    fprintf(stderr, "note: %s skipped (%s)\n", model,
            status.ToString().c_str());
    return false;
  };
  // Each governed run arms its own fresh governor (trips latch).
  auto context = [&](ExecutionGovernor* governor) {
    return gov->MakeContext(governor, run_opts->num_threads);
  };
  printf("%-28s %9s %11s %14s %10s\n", "model", "classes", "avg class",
         "discern.", "suppressed");
  if (wanted("incognito")) {
    ExecutionGovernor governor;
    PartialResult<IncognitoResult> r = RunIncognito(
        problem->table, problem->qid, config, *run_opts, context(&governor));
    if (accept("full-domain (Incognito)", r.status(), r.partial()) &&
        !r->anonymous_nodes.empty()) {
      SubsetNode minimal = MinimalByHeight(r->anonymous_nodes).front();
      Result<RecodeResult> view = ApplyFullDomainGeneralization(
          problem->table, problem->qid, minimal, config);
      if (view.ok()) report("full-domain (Incognito)", view->view);
    }
  }
  if (wanted("datafly")) {
    ExecutionGovernor governor;
    PartialResult<DataflyResult> r = RunDatafly(
        problem->table, problem->qid, config, context(&governor));
    // Datafly's partial contract releases an EMPTY view — nothing to rank.
    if (r.ok()) {
      report("Datafly (greedy)", r->view);
    } else {
      accept("Datafly (greedy)", r.status(), false);
    }
  }
  if (wanted("subtree")) {
    // No governed entry point; always runs ungoverned.
    Result<SubtreeResult> r =
        RunGreedySubtree(problem->table, problem->qid, config);
    if (r.ok()) report("full-subtree (greedy)", r->view);
  }
  if (wanted("ordered-set")) {
    ExecutionGovernor governor;
    PartialResult<OrderedSetResult> r = RunOrderedSetPartition(
        problem->table, problem->qid, config, context(&governor));
    // Partial contract releases an EMPTY view — nothing to rank.
    if (r.ok()) {
      report("ordered-set partitioning", r->view);
    } else {
      accept("ordered-set partitioning", r.status(), false);
    }
  }
  if (wanted("mondrian")) {
    ExecutionGovernor governor;
    PartialResult<MondrianResult> r = RunMondrian(
        problem->table, problem->qid, config, context(&governor));
    // Mondrian's partial view (fewer cuts applied) is still k-anonymous.
    if (accept("Mondrian multi-dimensional", r.status(), r.partial())) {
      report("Mondrian multi-dimensional", r->view);
    }
  }
  if (wanted("subgraph")) {
    // No governed entry point; always runs ungoverned.
    Result<SubgraphResult> r =
        RunGreedySubgraph(problem->table, problem->qid, config);
    if (r.ok()) report("full-subgraph multi-dim", r->view);
  }
  if (wanted("cell-suppression")) {
    ExecutionGovernor governor;
    PartialResult<CellSuppressionResult> r = RunCellSuppression(
        problem->table, problem->qid, config, context(&governor));
    // Partial contract releases an EMPTY view — nothing to rank.
    if (r.ok()) {
      report("cell suppression (local)", r->view);
    } else {
      accept("cell suppression (local)", r.status(), false);
    }
  }
  if (wanted("cell-generalization")) {
    // No governed entry point; always runs ungoverned.
    Result<CellGeneralizationResult> r =
        RunCellGeneralization(problem->table, problem->qid, config);
    if (r.ok()) report("cell generalization (local)", r->view);
  }
  if (wanted("koptimize")) {
    ExecutionGovernor governor;
    PartialResult<KOptimizeResult> r = RunKOptimize(
        problem->table, problem->qid, config, {}, context(&governor));
    // k-Optimize's partial view (best cut set found so far) is a sound
    // k-anonymous release, just not provably optimal.
    if (accept("k-Optimize (optimal 1-D)", r.status(), r.partial())) {
      report("k-Optimize (optimal 1-D)", r->view);
    }
  }
  if (!only.empty() && !matched) {
    return Fail(Status::InvalidArgument(
        "unknown --model value '" + only +
        "' (want incognito, datafly, subtree, ordered-set, mondrian, "
        "subgraph, cell-suppression, cell-generalization, or koptimize)"));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve — the resident multi-tenant anonymization daemon (docs/SERVICE.md)
// ---------------------------------------------------------------------------

/// SIGTERM/SIGINT flag for the serve loop (async-signal-safe: the handler
/// only stores; the loop polls).
volatile std::sig_atomic_t g_serve_signal = 0;

void ServeSignalHandler(int) { g_serve_signal = 1; }

/// `incognito_cli serve --socket=PATH [--workers=N] [--queue-depth=N]
/// [--tenant-quota=N] [--memory-limit-mb=N] [--default-lease-mb=N]
/// [--weights=T=W,T=W,...]`: runs the job pipeline daemon until SIGTERM,
/// SIGINT, or a client {"op":"shutdown"}, then drains gracefully (stops
/// admission, finishes every admitted job) and exits 0.
int CmdServe(const std::map<std::string, std::string>& args) {
  std::string socket_path = Get(args, "socket");
  if (socket_path.empty()) {
    return Fail(Status::InvalidArgument("--socket=PATH is required"));
  }
  // Megabyte flags stay below the bound whose bytes overflow int64.
  constexpr int64_t kMaxMb = INT64_MAX >> 20;
  Result<int64_t> workers = IntFlag(args, "workers", "2", 1, kMaxThreads);
  if (!workers.ok()) return Fail(workers.status());
  Result<int64_t> queue_depth = IntFlag(args, "queue-depth", "64", 0);
  if (!queue_depth.ok()) return Fail(queue_depth.status());
  Result<int64_t> tenant_quota = IntFlag(args, "tenant-quota", "16", 0);
  if (!tenant_quota.ok()) return Fail(tenant_quota.status());
  Result<int64_t> memory_limit_mb =
      IntFlag(args, "memory-limit-mb", "0", 0, kMaxMb);
  if (!memory_limit_mb.ok()) return Fail(memory_limit_mb.status());
  Result<int64_t> default_lease_mb =
      IntFlag(args, "default-lease-mb", "16", 0, kMaxMb);
  if (!default_lease_mb.ok()) return Fail(default_lease_mb.status());
  ServiceConfig config;
  config.num_workers = static_cast<int>(workers.value());
  config.queue_depth = static_cast<size_t>(queue_depth.value());
  config.per_tenant_queue_depth = static_cast<size_t>(tenant_quota.value());
  config.memory_limit_bytes = memory_limit_mb.value() << 20;
  config.default_job_lease_bytes = default_lease_mb.value() << 20;
  for (const std::string& entry : Split(Get(args, "weights"), ',')) {
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    double weight = 0;
    if (eq == std::string::npos ||
        !ParseDouble(entry.substr(eq + 1), &weight) || !(weight > 0) ||
        !std::isfinite(weight)) {
      return Fail(Status::InvalidArgument(
          "bad --weights entry '" + entry +
          "' (want TENANT=WEIGHT with a positive WEIGHT)"));
    }
    config.tenant_weights[entry.substr(0, eq)] = weight;
  }

  ServiceCore core(config);
  ServiceServer server(&core, socket_path);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::signal(SIGTERM, ServeSignalHandler);
  std::signal(SIGINT, ServeSignalHandler);
  fprintf(stderr, "serving on %s (%d workers, queue depth %zu)\n",
          socket_path.c_str(), config.num_workers, config.queue_depth);
  while (g_serve_signal == 0 && !server.ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  fprintf(stderr, "draining: completing admitted jobs...\n");
  core.Drain();
  server.Stop();
  ServiceStats stats = core.stats();
  fprintf(stderr,
          "drained: %lld completed, %lld cancelled, %lld rejected\n",
          static_cast<long long>(stats.completed),
          static_cast<long long>(stats.cancelled),
          static_cast<long long>(stats.rejected_queue_full +
                                 stats.rejected_tenant_quota +
                                 stats.rejected_memory +
                                 stats.rejected_draining));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  const std::set<std::string> allowed = SubcommandFlags(command);
  if (allowed.empty()) return Usage();
  std::map<std::string, std::string> args;
  if (!ParseArgs(argc, argv, allowed, &args)) return 2;
  std::string fault_spec = Get(args, "fault-script");
  if (!fault_spec.empty()) {
    if (!FaultInjector::kCompiledIn) {
      return Fail(Status::InvalidArgument(
          "--fault-script requires a build with -DINCOGNITO_FAULTS=ON"));
    }
    Status armed = FaultInjector::Global().Configure(fault_spec);
    if (!armed.ok()) return Fail(armed);
  }
  if (command == "hierarchy") return CmdHierarchy(args);
  if (command == "serve") return CmdServe(args);
  // The session sizes the trace and starts the sampler as it is made, so
  // their numbers are checked first.
  for (const char* key : {"trace-capacity", "sample-interval-ms"}) {
    Result<int64_t> value = IntFlag(args, key, "1", 1, INT32_MAX);
    if (!value.ok()) return Fail(value.status());
  }
  ObsSession obs(command, args);
  int code;
  if (command == "check") {
    code = CmdCheck(args, &obs);
  } else if (command == "enumerate") {
    code = CmdEnumerate(args, &obs);
  } else if (command == "anonymize") {
    code = CmdAnonymize(args, &obs);
  } else if (command == "models") {
    code = CmdModels(args, &obs);
  } else {
    return Usage();
  }
  return obs.Finish(code);
}
