// Kill-and-resume crash injection for the checkpoint subsystem: fork a
// child, SIGKILL it mid-search at a scripted fault site (via the fault
// injector's kill mode), then resume from the surviving checkpoint in the
// parent and assert the result is bit-identical to an uninterrupted run —
// survivors, per-iteration survivor sets, and the six deterministic
// counters — at every thread count, and across thread counts.
//
// The kill scripts only fire in -DINCOGNITO_FAULTS=ON builds (the CI
// crash-recovery job); elsewhere the whole suite skips.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#ifndef _WIN32
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/incognito.h"
#include "core/run_context.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::NodeSet;
using testing_util::RandomDataset;

#if defined(INCOGNITO_FAULTS) && !defined(_WIN32)

RandomDataset CrashDataset() {
  Rng rng(29);
  testing_util::RandomDatasetOptions opts;
  opts.num_attrs = 4;  // enough subsets for the subset DAG to matter
  opts.num_rows = 80;
  return MakeRandomDataset(rng, opts);
}

struct CrashConfig {
  int threads;
  std::string site;
  int64_t nth;
};

std::string ConfigName(const CrashConfig& c) {
  return "threads=" + std::to_string(c.threads) + " kill=" + c.site + ":" +
         std::to_string(c.nth);
}

/// Forks a child that runs the search at `threads` with a checkpoint at
/// every finished subset and the kill script armed, and waits for it.
/// Either the kill lands (SIGKILL, no cleanup — the whole point) or the
/// site is never reached and the run completes; anything else fails.
void RunChildUntilKilled(const RandomDataset& data,
                         const AnonymizationConfig& config,
                         const CrashConfig& crash, const std::string& path) {
  std::remove(path.c_str());
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << ConfigName(crash);
  if (pid == 0) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().ScriptKillNthHit(crash.site, crash.nth);
    CheckpointPolicy policy;
    policy.path = path;
    RunContext ctx = RunContext::WithThreads(crash.threads);
    ctx.checkpoint = &policy;
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, {}, ctx);
    _exit(run.ok() ? 0 : 7);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid) << ConfigName(crash);
  const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  const bool finished = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  ASSERT_TRUE(killed || finished)
      << ConfigName(crash) << " child exited abnormally (status=" << status
      << ")";
}

/// Resumes from whatever the child left behind at `threads`. kAuto covers
/// the kill-before-first-write case (no file -> fresh).
PartialResult<IncognitoResult> Resume(const RandomDataset& data,
                                      const AnonymizationConfig& config,
                                      int threads, const std::string& path) {
  CheckpointPolicy resume;
  resume.path = path;
  resume.resume = ResumeMode::kAuto;
  RunContext ctx = RunContext::WithThreads(threads);
  ctx.checkpoint = &resume;
  return RunIncognito(data.table, data.qid, config, {}, ctx);
}

void ExpectBitIdentical(const IncognitoResult& got,
                        const IncognitoResult& want, const std::string& ctx) {
  EXPECT_EQ(NodeSet(got.anonymous_nodes), NodeSet(want.anonymous_nodes))
      << ctx;
  ASSERT_EQ(got.per_iteration_survivors.size(),
            want.per_iteration_survivors.size())
      << ctx;
  for (size_t i = 0; i < want.per_iteration_survivors.size(); ++i) {
    EXPECT_EQ(NodeSet(got.per_iteration_survivors[i]),
              NodeSet(want.per_iteration_survivors[i]))
        << ctx << " iteration=" << i + 1;
  }
  EXPECT_EQ(got.stats.nodes_checked, want.stats.nodes_checked) << ctx;
  EXPECT_EQ(got.stats.nodes_marked, want.stats.nodes_marked) << ctx;
  EXPECT_EQ(got.stats.table_scans, want.stats.table_scans) << ctx;
  EXPECT_EQ(got.stats.rollups, want.stats.rollups) << ctx;
  EXPECT_EQ(got.stats.freq_groups_built, want.stats.freq_groups_built) << ctx;
  EXPECT_EQ(got.stats.candidate_nodes, want.stats.candidate_nodes) << ctx;
}

TEST(CrashRecoveryTest, KillAtEveryFaultSiteThenResumeIsBitIdentical) {
  RandomDataset data = CrashDataset();
  AnonymizationConfig config;
  config.k = 2;

  // Kill points: during the checkpoint write itself (before and after the
  // data lands), in the subset-DAG scheduler, and deep in the search —
  // freq.batch.scan lands the kill inside a level's shared batch scan.
  const std::vector<std::string> sites = {
      "checkpoint.write.open", "checkpoint.write.rename",
      "incognito.subset.schedule", "incognito.rollup", "freq.batch.scan"};

  // Every thread count is bit-identical, so one uninterrupted reference
  // serves all of them.
  PartialResult<IncognitoResult> reference =
      RunIncognito(data.table, data.qid, config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : {1, 2, 4, 8}) {
    for (const std::string& site : sites) {
      for (int64_t nth : {int64_t{1}, int64_t{3}}) {
        CrashConfig crash{threads, site, nth};
        const std::string path = testing_util::TempPath(
            "crash_" + std::to_string(threads) + "_" + site + "_" +
            std::to_string(nth) + ".ckpt");
        RunChildUntilKilled(data, config, crash, path);
        PartialResult<IncognitoResult> resumed =
            Resume(data, config, threads, path);
        ASSERT_TRUE(resumed.ok())
            << ConfigName(crash) << ": " << resumed.status().ToString();
        ExpectBitIdentical(*resumed, *reference, ConfigName(crash));
        std::remove(path.c_str());
      }
    }
  }
}

TEST(CrashRecoveryTest, CheckpointsArePortableAcrossThreadCounts) {
  // Kill a run at one thread count and resume it at another, both ways:
  // checkpoints deliberately exclude the thread count from the
  // fingerprint.
  RandomDataset data = CrashDataset();
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> reference =
      RunIncognito(data.table, data.qid, config);
  ASSERT_TRUE(reference.ok());
  for (const auto& [write_threads, resume_threads] :
       {std::pair<int, int>{1, 4}, std::pair<int, int>{4, 1}}) {
    CrashConfig crash{write_threads, "incognito.subset.schedule", 4};
    const std::string name = ConfigName(crash) + " resume_threads=" +
                             std::to_string(resume_threads);
    const std::string path = testing_util::TempPath(
        "crash_portable_" + std::to_string(write_threads) + ".ckpt");
    RunChildUntilKilled(data, config, crash, path);
    PartialResult<IncognitoResult> resumed =
        Resume(data, config, resume_threads, path);
    ASSERT_TRUE(resumed.ok()) << name << ": " << resumed.status().ToString();
    // One worker finishes (and writes) three subsets before the fourth
    // dequeue kills it; four may all be in flight when it lands.
    if (write_threads == 1) {
      EXPECT_EQ(resumed->stats.restored_subsets, 3) << name;
    }
    ExpectBitIdentical(*resumed, *reference, name);
    std::remove(path.c_str());
  }
}

#else  // !INCOGNITO_FAULTS || _WIN32

TEST(CrashRecoveryTest, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "crash injection needs -DINCOGNITO_FAULTS=ON and POSIX "
                  "fork/waitpid";
}

#endif

}  // namespace
}  // namespace incognito
