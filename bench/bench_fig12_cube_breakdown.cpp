// Reproduces paper Figure 12: the combined cost of Cube Incognito, split
// into the bottom-up zero-generalization cube build and the anonymization
// (search) that follows, at k=2 for varied quasi-identifier size — Adults
// QID 3..9, Lands End QID 3..8.
//
// Expected shape: on the small Adults database the cube is cheap and Cube
// Incognito's total is competitive with Basic; on the larger Lands End
// database the cube build dominates the total (the paper's motivation for
// "strategic materialization" as future work), while the marginal
// anonymization time after materialization is below Basic Incognito's.
//
// Flags: --adults_rows=N (45222) --landsend_rows=N (200000)
//        --max_qid_adults=N (9) --max_qid_landsend=N (8) --quick
//        --threads=N (8, upper bound of the parallel-build sweep)
//        --json[=FILE] (machine-readable BENCH_fig12_cube_breakdown.json)

#include <cstdio>

#include "bench_util.h"
#include "core/worker_pool.h"
#include "data/adults.h"
#include "data/landsend.h"
#include "freq/cube.h"

using namespace incognito;
using namespace incognito::bench;

namespace {

void Sweep(const char* name, const SyntheticDataset& dataset, size_t max_qid,
           BenchReport* report) {
  AnonymizationConfig config;
  config.k = 2;
  printf("\n--- %s database (k=2) ---\n", name);
  printf("%4s %12s %14s %12s %14s\n", "qid", "cube build", "anonymization",
         "cube total", "basic total");
  for (size_t qid_size = 3; qid_size <= max_qid; ++qid_size) {
    QuasiIdentifier qid = dataset.qid.Prefix(qid_size);
    RunResult cube =
        RunAlgorithm(Algorithm::kCubeIncognito, dataset.table, qid, config);
    RunResult basic =
        RunAlgorithm(Algorithm::kBasicIncognito, dataset.table, qid, config);
    if (!cube.ok || !basic.ok) {
      fprintf(stderr, "run failed at qid=%zu\n", qid_size);
      continue;
    }
    double build = cube.stats.cube_build_seconds;
    double anonymize = cube.stats.total_seconds - build;
    printf("%4zu %11.3fs %13.3fs %11.3fs %13.3fs\n", qid_size, build,
           anonymize, cube.stats.total_seconds, basic.stats.total_seconds);
    fflush(stdout);
    report->Add(name, config.k, qid_size, Algorithm::kCubeIncognito, cube);
    report->Add(name, config.k, qid_size, Algorithm::kBasicIncognito, basic);
  }
}

// Times the cube build at 1, 2, 4, ... threads on the largest Adults QID
// and records each build's speedup over the 1-worker build under the
// report's "derived" object (docs/PARALLELISM.md "Intra-node parallelism").
void ThreadSweep(const SyntheticDataset& dataset, size_t qid_size,
                 int max_threads, BenchReport* report) {
  QuasiIdentifier qid = dataset.qid.Prefix(qid_size);
  printf("\n--- parallel cube build, adults qid=%zu ---\n", qid_size);
  printf("%8s %12s %9s\n", "threads", "build", "speedup");
  double base_seconds = 0;
  ZeroGenCube::BuildInfo base_info;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    WorkerPool pool(threads);
    Stopwatch timer;
    ZeroGenCube::BuildInfo info;
    ExecutionGovernor governor;
    ZeroGenCube cube =
        ZeroGenCube::Build(dataset.table, qid, pool, governor, &info);
    double seconds = timer.ElapsedSeconds();
    if (threads == 1) {
      base_seconds = seconds;
      base_info = info;
    } else if (info.num_subsets != base_info.num_subsets ||
               info.total_groups != base_info.total_groups) {
      fprintf(stderr, "parallel build mismatch at %d threads\n", threads);
      continue;
    }
    double speedup = seconds > 0 ? base_seconds / seconds : 0;
    printf("%8d %11.3fs %8.2fx\n", threads, seconds, speedup);
    fflush(stdout);
    report->SetDerived(
        StringPrintf("cube_build_speedup_threads_%d", threads), speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bool quick = flags.GetBool("quick", false);
  AdultsOptions adults_opts;
  adults_opts.num_rows =
      static_cast<size_t>(flags.GetInt("adults_rows", quick ? 5000 : 45222));
  LandsEndOptions landsend_opts;
  landsend_opts.num_rows = static_cast<size_t>(
      flags.GetInt("landsend_rows", quick ? 20000 : 200000));
  size_t max_qid_adults =
      static_cast<size_t>(flags.GetInt("max_qid_adults", quick ? 5 : 9));
  size_t max_qid_landsend =
      static_cast<size_t>(flags.GetInt("max_qid_landsend", quick ? 5 : 8));
  int max_threads = static_cast<int>(flags.GetInt("threads", 8));
  BenchReport report(flags, "fig12_cube_breakdown");
  if (!flags.CheckUnknown()) return 2;

  printf("=== Figure 12: cube build vs anonymization cost (Cube Incognito) "
         "===\n");
  Result<SyntheticDataset> adults = MakeAdultsDataset(adults_opts);
  if (!adults.ok()) {
    fprintf(stderr, "adults generation failed\n");
    return 1;
  }
  Sweep("adults", adults.value(), max_qid_adults, &report);
  ThreadSweep(adults.value(), max_qid_adults, max_threads, &report);

  Result<SyntheticDataset> landsend = MakeLandsEndDataset(landsend_opts);
  if (!landsend.ok()) {
    fprintf(stderr, "landsend generation failed\n");
    return 1;
  }
  Sweep("landsend", landsend.value(), max_qid_landsend, &report);
  return report.Write();
}
