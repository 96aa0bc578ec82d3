// Reproduces paper Figure 9: the descriptions of the Adults and Lands End
// databases. Generates both synthetic stand-ins and prints, per attribute,
// the domain size (which must equal the paper's distinct-value count), the
// distinct values realized in the generated data, and the generalization
// hierarchy height (which must equal the parenthesized number in Fig. 9).
//
// Flags: --adults_rows=N (default 45222, the paper's row count)
//        --landsend_rows=N (default 200000; the paper's 4591581 also works)
//        --quick           (small tables, for CI)
//        --json[=FILE]     (also time the six algorithms on a small Adults
//                           QID and write a machine-readable report)
//        --threads=N       (cap for the parallel speedup sweep, default 8;
//                           the sweep runs at 1, 2, 4, ... up to the cap)
//        --no-batch-scan   (ablation: disable the scan-sharing batched
//                           level evaluation in every Incognito run — the
//                           CI bench-smoke job diffs this leg against the
//                           batched baseline with --ignore=table_scans)
//        --trace=FILE      (write a Chrome trace_event JSON of the timed
//                           runs; the scheduler swimlanes live under the
//                           pid-2 "scheduler" process, one tid per worker —
//                           docs/OBSERVABILITY.md has the viewing recipe)
//        --report=FILE     (write an obs::RunReport with the last speedup-
//                           sweep run's AlgorithmStats, worker_utilization,
//                           and histogram percentiles)

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/incognito.h"
#include "data/adults.h"
#include "data/landsend.h"
#include "obs/report.h"
#include "obs/trace.h"

using namespace incognito;
using namespace incognito::bench;

namespace {

struct ExpectedAttr {
  const char* name;
  size_t paper_distinct;
  const char* paper_generalizations;
  size_t paper_height;
};

void PrintDataset(const char* title, const SyntheticDataset& dataset,
                  const std::vector<ExpectedAttr>& expected) {
  printf("\n%s (%zu records)\n", title, dataset.table.num_rows());
  printf("%-3s %-16s %15s %12s %13s %-26s %7s %6s\n", "#", "attribute",
         "paper distinct", "domain size", "realized", "generalizations",
         "height", "match");
  std::vector<AttributeStats> stats = DescribeDataset(dataset);
  for (size_t i = 0; i < stats.size(); ++i) {
    bool match = stats[i].domain_size == expected[i].paper_distinct &&
                 stats[i].hierarchy_height == expected[i].paper_height;
    printf("%-3zu %-16s %15zu %12zu %13zu %-26s %7zu %6s\n", i + 1,
           stats[i].name.c_str(), expected[i].paper_distinct,
           stats[i].domain_size, stats[i].realized_distinct,
           expected[i].paper_generalizations, stats[i].hierarchy_height,
           match ? "yes" : "NO");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool quick = flags.GetBool("quick", false);
  BenchReport report(flags, "fig9_datasets");
  printf("=== Figure 9: experimental database descriptions ===\n");

  AdultsOptions adults_opts;
  adults_opts.num_rows =
      static_cast<size_t>(flags.GetInt("adults_rows", quick ? 5000 : 45222));
  LandsEndOptions landsend_opts;
  landsend_opts.num_rows = static_cast<size_t>(
      flags.GetInt("landsend_rows", quick ? 20000 : 200000));
  int64_t max_threads = flags.GetInt("threads", 8);
  bool batch_scans = !flags.GetBool("no-batch-scan", false);
  std::string trace_path = flags.GetString("trace", "");
  std::string report_path = flags.GetString("report", "");
  if (!flags.CheckUnknown()) return 2;

  std::string command;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) command += " ";
    command += argv[i];
  }
  obs::MetricsSnapshot start_metrics = obs::MetricsSnapshot::Take();
  if (!trace_path.empty()) obs::TraceRecorder::Global().Enable();

  Result<SyntheticDataset> adults = MakeAdultsDataset(adults_opts);
  if (!adults.ok()) {
    fprintf(stderr, "adults generation failed: %s\n",
            adults.status().ToString().c_str());
    return 1;
  }
  PrintDataset("Adults", adults.value(),
               {{"Age", 74, "5-, 10-, 20-year ranges", 4},
                {"Gender", 2, "Suppression", 1},
                {"Race", 5, "Suppression", 1},
                {"Marital status", 7, "Taxonomy tree", 2},
                {"Education", 16, "Taxonomy tree", 3},
                {"Native country", 41, "Taxonomy tree", 2},
                {"Work class", 7, "Taxonomy tree", 2},
                {"Occupation", 14, "Taxonomy tree", 2},
                {"Salary class", 2, "Suppression", 1}});

  Result<SyntheticDataset> landsend = MakeLandsEndDataset(landsend_opts);
  if (!landsend.ok()) {
    fprintf(stderr, "landsend generation failed: %s\n",
            landsend.status().ToString().c_str());
    return 1;
  }
  PrintDataset("Lands End", landsend.value(),
               {{"Zipcode", 31953, "Round each digit", 5},
                {"Order date", 320, "Taxonomy tree", 3},
                {"Gender", 2, "Suppression", 1},
                {"Style", 1509, "Suppression", 1},
                {"Price", 346, "Round each digit", 4},
                {"Quantity", 1, "Suppression", 1},
                {"Cost", 1412, "Round each digit", 4},
                {"Shipment", 2, "Suppression", 1}});

  printf(
      "\nNote: 'domain size' is the attribute's dictionary domain (matches "
      "the paper's\ndistinct counts by construction); 'realized' is what "
      "the sampled rows cover,\nwhich approaches the domain as the row "
      "count grows (paper scale: 45,222 Adults\nrows, 4,591,581 Lands End "
      "rows — see --landsend_rows).\n");

  // The last successful parallel run feeds the --report summary: its
  // AlgorithmStats and per-worker utilization become the RunReport body.
  AlgorithmStats last_stats{};
  std::vector<double> last_utilization;
  bool have_parallel_run = false;

  bool timed_section =
      report.enabled() || !trace_path.empty() || !report_path.empty();
  if (timed_section) {
    // The JSON report also carries a small algorithm comparison so one
    // BENCH_fig9_datasets.json captures dataset shape AND per-algorithm
    // wall time with per-phase counters.
    printf("\n--- algorithm timings for the JSON report (Adults, QID 3, "
           "k=2) ---\n");
    PrintRowHeader();
    QuasiIdentifier qid = adults->qid.Prefix(3);
    AnonymizationConfig config;
    config.k = 2;
    IncognitoOptions parallel_opts;
    parallel_opts.batch_scans = batch_scans;
    for (Algorithm algorithm : AllAlgorithms()) {
      RunResult r =
          RunAlgorithm(algorithm, adults->table, qid, config, batch_scans);
      if (!r.ok) {
        fprintf(stderr, "%s failed\n", AlgorithmName(algorithm));
        continue;
      }
      PrintRow("adults", config.k, qid.size(), algorithm, r, &report);
    }

    // Parallel speedup sweep: every thread count is bit-identical
    // (docs/PARALLELISM.md), so wall time is the only axis worth plotting.
    // The 1-thread run is the speedup baseline.
    printf("\n--- parallel search speedup (Adults, QID 3, k=2) ---\n");
    double base_seconds = 0;
    for (int threads = 1; threads <= max_threads; threads *= 2) {
      obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
      Stopwatch timer;
      PartialResult<IncognitoResult> r =
          RunIncognito(adults->table, qid, config, parallel_opts,
                       RunContext::WithThreads(threads));
      double seconds = timer.ElapsedSeconds();
      if (!r.ok()) {
        fprintf(stderr, "parallel search (%d threads) failed: %s\n", threads,
                r.status().ToString().c_str());
        continue;
      }
      if (threads == 1) base_seconds = seconds;
      last_stats = r->stats;
      last_utilization = r->worker_utilization;
      have_parallel_run = true;
      double speedup = seconds > 0 ? base_seconds / seconds : 0;
      printf("threads=%-2d  %10.3fs  speedup=%.2fx  solutions=%zu\n", threads,
             seconds, speedup, r->anonymous_nodes.size());
      report.Add("adults", config.k, qid.size(),
                 StringPrintf("Parallel Incognito (%d threads)", threads),
                 seconds, r->anonymous_nodes.size(), r->stats,
                 obs::MetricsSnapshot::Take().DeltaSince(before));
      report.SetDerived(StringPrintf("speedup_threads_%d", threads), speedup);
    }
  }

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (!report_path.empty()) {
    obs::RunReport run_report("bench_fig9_datasets", command);
    run_report.SetInt("threads", max_threads);
    run_report.SetInt("adults_rows",
                      static_cast<int64_t>(adults_opts.num_rows));
    if (have_parallel_run) {
      obs::AddAlgorithmStats(last_stats, &run_report);
      if (!last_utilization.empty()) {
        run_report.SetDoubleList("worker_utilization", last_utilization);
      }
    }
    run_report.AddMetrics(
        obs::MetricsSnapshot::Take().DeltaSince(start_metrics));
    if (recorder.enabled()) {
      run_report.AddSpans(recorder);
      if (recorder.dropped_events() > 0) {
        run_report.SetInt("trace_dropped_events",
                          static_cast<int64_t>(recorder.dropped_events()));
      }
    }
    Status written = run_report.WriteFile(report_path);
    if (!written.ok()) {
      fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    fprintf(stderr, "wrote report %s\n", report_path.c_str());
  }
  if (!trace_path.empty()) {
    Status written = recorder.WriteJson(trace_path);
    recorder.Disable();
    if (!written.ok()) {
      fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    fprintf(stderr, "wrote trace %s (%zu events, %llu dropped)\n",
            trace_path.c_str(), recorder.num_events(),
            static_cast<unsigned long long>(recorder.dropped_events()));
  }
  return report.Write();
}
