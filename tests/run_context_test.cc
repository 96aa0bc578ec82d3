// Tests for the RunContext API (core/run_context.h, docs/API.md): a
// default-constructed context must reproduce the ungoverned call (complete
// result, zero trip counters), the fluent builders must arm the borrowed
// governor, and the entry points that GAINED governed execution in the
// redesign — RunKOptimize and RunLDiversityIncognito — must honor their
// documented partial contracts.

#include "core/run_context.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "core/binary_search.h"
#include "core/bottom_up.h"
#include "core/exec_profile.h"
#include "core/incognito.h"
#include "core/ldiversity.h"
#include "data/patients.h"
#include "models/cell_suppression.h"
#include "models/datafly.h"
#include "models/koptimize.h"
#include "models/mondrian.h"
#include "models/ordered_set.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::NodeSet;
using testing_util::RandomDataset;

/// Canonical comparable form of a released view: one string per row.
std::vector<std::string> ViewRows(const Table& view) {
  std::vector<std::string> rows;
  rows.reserve(view.num_rows());
  for (size_t r = 0; r < view.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < view.num_columns(); ++c) {
      row += view.GetValue(r, c).ToString();
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

RandomDataset Fixture() {
  Rng rng(4242);
  return MakeRandomDataset(rng);
}

AnonymizationConfig Config() {
  AnonymizationConfig config;
  config.k = 2;
  return config;
}

// ---------------------------------------------------------------------------
// Default context ≡ legacy ungoverned call
// ---------------------------------------------------------------------------

TEST(RunContextDefaultTest, DefaultContextRunsUngovernedAndComplete) {
  // The old ungoverned overloads were subsumed by the defaulted ctx
  // parameter, so "legacy ungoverned" IS the default-context call; the
  // observable contract is a complete() result with zero trip counters.
  RandomDataset data = Fixture();
  PartialResult<IncognitoResult> r =
      RunIncognito(data.table, data.qid, Config());
  ASSERT_TRUE(r.complete());
  EXPECT_EQ(r->stats.governor_checks, 0);
  EXPECT_EQ(r->completed_iterations,
            static_cast<int64_t>(data.qid.size()));
  PartialResult<DataflyResult> d = RunDatafly(data.table, data.qid, Config());
  ASSERT_TRUE(d.complete());
  EXPECT_EQ(d->stats.governor_checks, 0);
}

TEST(RunContextDefaultTest, GenerousGovernedContextMatchesDefaultContext) {
  // A governor nobody trips must not change any answer.
  RandomDataset data = Fixture();
  PartialResult<IncognitoResult> plain =
      RunIncognito(data.table, data.qid, Config());
  ASSERT_TRUE(plain.complete());
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<IncognitoResult> governed = RunIncognito(
      data.table, data.qid, Config(), {}, RunContext::Governed(governor));
  ASSERT_TRUE(governed.complete()) << governed.status().ToString();
  EXPECT_EQ(NodeSet(plain->anonymous_nodes), NodeSet(governed->anonymous_nodes));
  EXPECT_EQ(governor.memory().used(), 0);
}

// ---------------------------------------------------------------------------
// RunKOptimize under a RunContext (new governed entry point)
// ---------------------------------------------------------------------------

TEST(RunContextKOptimizeTest, GenerousBudgetMatchesUngoverned) {
  RandomDataset data = Fixture();
  PartialResult<KOptimizeResult> plain =
      RunKOptimize(data.table, data.qid, Config());
  ASSERT_TRUE(plain.complete()) << plain.status().ToString();
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<KOptimizeResult> governed = RunKOptimize(
      data.table, data.qid, Config(), {}, RunContext::Governed(governor));
  ASSERT_TRUE(governed.complete()) << governed.status().ToString();
  EXPECT_EQ(plain->cost, governed->cost);
  EXPECT_EQ(plain->cuts, governed->cuts);
  EXPECT_EQ(ViewRows(plain->view), ViewRows(governed->view));
  EXPECT_EQ(plain->nodes_visited, governed->nodes_visited);
  // The charged frequency set was released on the way out.
  EXPECT_EQ(governor.memory().used(), 0);
  EXPECT_GT(governed->stats.governor_checks, 0);
}

TEST(RunContextKOptimizeTest, DeadlineTripMaterializesBestSoFarMask) {
  // Partial contract (models/koptimize.h): a trip releases the best cut
  // set found so far — a sound k-anonymous view, just not provably
  // optimal. Deadline zero trips before any cut is added, so the
  // materialized view is the fully-generalized (empty cut set) release.
  RandomDataset data = Fixture();
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(0));
  PartialResult<KOptimizeResult> r = RunKOptimize(
      data.table, data.qid, Config(), {}, RunContext::Governed(governor));
  ASSERT_TRUE(r.partial()) << r.status().ToString();
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The partial view exists and covers every released (non-suppressed)
  // tuple of the input.
  EXPECT_EQ(static_cast<int64_t>(r->view.num_rows()) + r->suppressed_tuples,
            static_cast<int64_t>(data.table.num_rows()));
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(RunContextKOptimizeTest, MaxNodesAbortStaysAHardError) {
  // The options.max_nodes safety valve is NOT governance: an un-governed
  // abort proves nothing, so it must stay a hard Internal error even
  // under a governed context.
  RandomDataset data = Fixture();
  KOptimizeOptions options;
  options.max_nodes = 1;
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<KOptimizeResult> r = RunKOptimize(
      data.table, data.qid, Config(), options, RunContext::Governed(governor));
  EXPECT_TRUE(r.hard_error());
  EXPECT_EQ(governor.memory().used(), 0);
}

// ---------------------------------------------------------------------------
// RunLDiversityIncognito under a RunContext (new governed entry point)
// ---------------------------------------------------------------------------

LDiversityConfig DiversityConfig() {
  LDiversityConfig config;
  config.k = 2;
  config.l = 2;
  config.sensitive_attribute = "Disease";
  return config;
}

TEST(RunContextLDiversityTest, GenerousBudgetMatchesUngoverned) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  for (int threads : {1, 4}) {
    const std::string context = "threads=" + std::to_string(threads);
    PartialResult<LDiversityResult> plain = RunLDiversityIncognito(
        ds->table, ds->qid, DiversityConfig(), RunContext::WithThreads(threads));
    ASSERT_TRUE(plain.complete()) << plain.status().ToString();
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(int64_t{1} << 33);
    PartialResult<LDiversityResult> governed =
        RunLDiversityIncognito(ds->table, ds->qid, DiversityConfig(),
                               RunContext::Governed(governor, threads));
    ASSERT_TRUE(governed.complete()) << governed.status().ToString();
    EXPECT_EQ(NodeSet(plain->diverse_nodes), NodeSet(governed->diverse_nodes))
        << context;
    EXPECT_EQ(plain->completed_iterations, governed->completed_iterations)
        << context;
    EXPECT_EQ(plain->stats.nodes_checked, governed->stats.nodes_checked)
        << context;
    EXPECT_EQ(governed->stats.parallel_workers, threads) << context;
    // Every charged frequency set was released (including the stored
    // rollup sources), and every shard lease drained.
    EXPECT_EQ(governor.memory().used(), 0) << context;
    EXPECT_GT(governed->stats.governor_checks, 0) << context;
  }
}

TEST(RunContextLDiversityTest, DeadlineTripYieldsDocumentedPartial) {
  // Partial contract (core/ldiversity.h): diverse_nodes EMPTY,
  // completed_iterations records the fully-processed subset sizes.
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  for (int threads : {1, 4}) {
    const std::string context = "threads=" + std::to_string(threads);
    ExecutionGovernor governor;
    governor.SetDeadline(Deadline::AfterMillis(0));
    PartialResult<LDiversityResult> r =
        RunLDiversityIncognito(ds->table, ds->qid, DiversityConfig(),
                               RunContext::Governed(governor, threads));
    ASSERT_TRUE(r.partial()) << r.status().ToString();
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << context;
    EXPECT_TRUE(r->diverse_nodes.empty()) << context;
    EXPECT_EQ(r->completed_iterations, 0) << context;
    EXPECT_EQ(governor.memory().used(), 0) << context;
  }
}

TEST(RunContextLDiversityTest, TinyMemoryBudgetTripsCleanly) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  for (int threads : {1, 4}) {
    const std::string context = "threads=" + std::to_string(threads);
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(1);  // the first charge refuses
    PartialResult<LDiversityResult> r =
        RunLDiversityIncognito(ds->table, ds->qid, DiversityConfig(),
                               RunContext::Governed(governor, threads));
    ASSERT_TRUE(r.partial()) << r.status().ToString();
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted) << context;
    EXPECT_TRUE(r->diverse_nodes.empty()) << context;
    EXPECT_EQ(r->completed_iterations, 0) << context;
    EXPECT_EQ(governor.memory().used(), 0) << context;
  }
}

// ---------------------------------------------------------------------------
// Fluent builders and the shared ExecProfile translation
// ---------------------------------------------------------------------------

TEST(RunContextBuilderTest, BuildersArmTheBorrowedGovernor) {
  ExecutionGovernor governor;
  CancelToken cancel;
  RunContext ctx = RunContext()
                       .WithGovernor(governor)
                       .WithDeadline(0)
                       .WithMemoryBudget(64)
                       .WithCancel(&cancel)
                       .WithWorkers(3);
  EXPECT_EQ(ctx.governor, &governor);
  EXPECT_EQ(ctx.num_threads, 3);
  // The zero deadline and the 64-byte budget were armed on the governor.
  EXPECT_FALSE(governor.Check().ok());
  EXPECT_FALSE(governor.ChargeMemory(65).ok());

  // A cancel-only chain arms the token on its governor.
  ExecutionGovernor cancellable;
  RunContext cancel_ctx =
      RunContext().WithGovernor(cancellable).WithCancel(&cancel);
  EXPECT_EQ(cancel_ctx.governor, &cancellable);
  EXPECT_TRUE(cancellable.Check().ok());
  cancel.Cancel();
  EXPECT_EQ(cancellable.Check().code(), StatusCode::kCancelled);
}

TEST(RunContextBuilderTest, UnsetSentinelsAreNoOps) {
  // Negative deadline, zero budget, and null pointers chain through
  // without requiring a governor — the documented "no conditionals"
  // contract for optional profile fields.
  RunContext ctx = RunContext()
                       .WithDeadline(-1)
                       .WithMemoryBudget(0)
                       .WithCancel(nullptr)
                       .WithCheckpoint(nullptr);
  EXPECT_EQ(ctx.governor, nullptr);
  EXPECT_EQ(ctx.checkpoint, nullptr);
}

TEST(ExecProfileTest, UngovernedProfileLeavesGovernorDetached) {
  ExecProfile profile;
  EXPECT_FALSE(profile.governed());
  ExecutionGovernor governor;
  RunContext ctx = profile.MakeContext(&governor);
  EXPECT_EQ(ctx.governor, nullptr);
  EXPECT_EQ(ctx.num_threads, 0);
}

TEST(ExecProfileTest, GovernedProfileArmsEveryBudget) {
  ExecProfile profile;
  profile.deadline_ms = 0;
  profile.memory_budget_bytes = 64;
  CancelToken cancel;
  profile.cancel = &cancel;
  profile.num_threads = 2;
  ASSERT_TRUE(profile.governed());
  ExecutionGovernor governor;
  RunContext ctx = profile.MakeContext(&governor);
  EXPECT_EQ(ctx.governor, &governor);
  EXPECT_EQ(ctx.num_threads, 2);
  EXPECT_FALSE(governor.Check().ok());
  EXPECT_FALSE(governor.ChargeMemory(65).ok());
}

TEST(ExecProfileTest, ProfileContextMatchesHandAssembledContext) {
  // The profile translation must produce the same governed answer as the
  // long-standing RunContext::Governed path.
  RandomDataset data = Fixture();
  ExecProfile profile;
  profile.memory_budget_bytes = int64_t{1} << 33;
  ExecutionGovernor profile_governor;
  PartialResult<IncognitoResult> via_profile =
      RunIncognito(data.table, data.qid, Config(), {},
                   profile.MakeContext(&profile_governor));
  ASSERT_TRUE(via_profile.complete()) << via_profile.status().ToString();
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<IncognitoResult> by_hand = RunIncognito(
      data.table, data.qid, Config(), {}, RunContext::Governed(governor));
  ASSERT_TRUE(by_hand.complete());
  EXPECT_EQ(NodeSet(via_profile->anonymous_nodes),
            NodeSet(by_hand->anonymous_nodes));
  EXPECT_EQ(via_profile->stats.nodes_checked, by_hand->stats.nodes_checked);
}

}  // namespace
}  // namespace incognito
