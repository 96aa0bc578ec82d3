// Tests for the resource-governance subsystem (src/robust/): deadlines,
// cancellation, memory budgets, partial results, fault injection, and the
// governed overloads of the search algorithms and §5 model drivers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/random.h"
#include "core/binary_search.h"
#include "core/bottom_up.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "data/adults.h"
#include "hierarchy/builders.h"
#include "hierarchy/csv_hierarchy.h"
#include "models/datafly.h"
#include "models/mondrian.h"
#include "relation/binary_io.h"
#include "relation/csv.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "robust/safe_io.h"
#include "service/job_spec.h"
#include "service/server.h"
#include "service/service.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::NodeSet;
using testing_util::RandomDataset;
using testing_util::TempPath;

// ---------------------------------------------------------------------------
// Budget primitives
// ---------------------------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-1).infinite());
  EXPECT_TRUE(Deadline::Infinite().RemainingSeconds() > 1e9);
}

TEST(DeadlineTest, ZeroMillisIsAlreadyExpired) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
}

TEST(CancelTokenTest, CancelIsStickyAndVisible) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.Cancelled());
}

TEST(MemoryBudgetTest, ChargeRefusalRollsBack) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryCharge(60));
  EXPECT_EQ(budget.used(), 60);
  // 60 + 50 > 100: refused without charging.
  EXPECT_FALSE(budget.TryCharge(50));
  EXPECT_EQ(budget.used(), 60);
  EXPECT_TRUE(budget.TryCharge(40));
  EXPECT_EQ(budget.used(), 100);
  EXPECT_EQ(budget.peak(), 100);
  budget.Release(100);
  EXPECT_EQ(budget.used(), 0);
  EXPECT_EQ(budget.peak(), 100);  // peak is a high-water mark
}

TEST(MemoryBudgetTest, ZeroLimitIsUnlimited) {
  MemoryBudget budget;
  EXPECT_TRUE(budget.TryCharge(int64_t{1} << 40));
  EXPECT_EQ(budget.peak(), int64_t{1} << 40);
}

TEST(GovernorTest, DeadlineTripLatches) {
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(0));
  Status first = governor.Check();
  EXPECT_EQ(first.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(governor.Tripped());
  // Every later checkpoint returns the latched trip, even though the
  // deadline is re-checkable.
  EXPECT_EQ(governor.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(governor.trips().deadline_trips, 1);
}

TEST(GovernorTest, CancelWinsOverDeadline) {
  CancelToken token;
  token.Cancel();
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  governor.SetDeadline(Deadline::AfterMillis(0));
  EXPECT_EQ(governor.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(governor.trips().cancel_trips, 1);
}

TEST(GovernorTest, MemoryRefusalLatchesFurtherCharges) {
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(1000);
  EXPECT_TRUE(governor.ChargeMemory(600).ok());
  Status refused = governor.ChargeMemory(600);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // Once tripped, even a charge that would fit is refused: the run is
  // unwinding and must observe one deterministic outcome.
  EXPECT_EQ(governor.ChargeMemory(1).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.memory().used(), 600);
  governor.ReleaseMemory(600);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(GovernorTest, ExportTripsOverwrites) {
  ExecutionGovernor governor;
  governor.Check();
  governor.Check();
  AlgorithmStats stats;
  governor.ExportTrips(&stats);
  governor.ExportTrips(&stats);  // snapshot semantics: no double-count
  EXPECT_EQ(stats.governor_checks, 2);
  EXPECT_EQ(stats.deadline_trips, 0);
}

TEST(PartialResultTest, ThreeStates) {
  PartialResult<int> complete(7);
  EXPECT_TRUE(complete.complete());
  EXPECT_FALSE(complete.partial());
  EXPECT_EQ(*complete, 7);

  PartialResult<int> partial = PartialResult<int>::Partial(
      Status::DeadlineExceeded("budget"), 3);
  EXPECT_FALSE(partial.complete());
  EXPECT_TRUE(partial.partial());
  EXPECT_FALSE(partial.hard_error());
  EXPECT_EQ(*partial, 3);

  PartialResult<int> hard(Status::InvalidArgument("bad"));
  EXPECT_TRUE(hard.hard_error());
  EXPECT_FALSE(hard.partial());
}

TEST(StatusTest, GovernanceCodesAndNames) {
  EXPECT_TRUE(IsResourceGovernance(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsResourceGovernance(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsResourceGovernance(StatusCode::kCancelled));
  EXPECT_FALSE(IsResourceGovernance(StatusCode::kOk));
  EXPECT_FALSE(IsResourceGovernance(StatusCode::kIOError));
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
}

// ---------------------------------------------------------------------------
// Fault injector (the injector object is always compiled; only the fault
// *points* in the library are behind INCOGNITO_FAULTS)
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ScriptedNthHitFiresOnce) {
  FaultInjector injector;
  injector.ScriptFailNthHit("csv.read.open", 2);
  EXPECT_FALSE(injector.Hit("csv.read.open"));
  EXPECT_TRUE(injector.Hit("csv.read.open"));   // the scripted 2nd hit
  EXPECT_FALSE(injector.Hit("csv.read.open"));  // consumed; retries succeed
  EXPECT_EQ(injector.HitCount("csv.read.open"), 3);
  EXPECT_EQ(injector.FaultsFired(), 1);
  injector.Reset();
  EXPECT_EQ(injector.HitCount("csv.read.open"), 0);
  EXPECT_EQ(injector.FaultsFired(), 0);
}

TEST(FaultInjectorTest, SeededRandomModeIsDeterministic) {
  auto run = [](uint64_t seed) {
    FaultInjector injector;
    injector.EnableRandom(seed, 0.5);
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i) fired.push_back(injector.Hit("site"));
    return fired;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultInjectorTest, ConfigureValidatesSpecs) {
  FaultInjector injector;
  EXPECT_TRUE(injector.Configure("csv.read.open:1").ok());
  EXPECT_TRUE(injector.Configure("rand:7:0.25").ok());
  EXPECT_FALSE(injector.Configure("no.such.site:1").ok());
  EXPECT_FALSE(injector.Configure("csv.read.open:0").ok());
  EXPECT_FALSE(injector.Configure("rand:7:1.5").ok());
  EXPECT_FALSE(injector.Configure("garbage").ok());
}

TEST(FaultInjectorTest, KnownSitesCatalogCoversTheLibrary) {
  const std::vector<std::string>& sites = FaultInjector::KnownSites();
  EXPECT_GE(sites.size(), 24u);
  auto has = [&sites](const std::string& s) {
    return std::find(sites.begin(), sites.end(), s) != sites.end();
  };
  EXPECT_TRUE(has("csv.read.open"));
  EXPECT_TRUE(has("csv.write.rename"));
  EXPECT_TRUE(has("hierarchy_csv.read.open"));
  EXPECT_TRUE(has("binary_io.read.io"));
  EXPECT_TRUE(has("binary_io.write.rename"));
  EXPECT_TRUE(has("governor.charge"));
  EXPECT_TRUE(has("checkpoint.write.open"));
  EXPECT_TRUE(has("checkpoint.write.io"));
  EXPECT_TRUE(has("checkpoint.write.rename"));
  EXPECT_TRUE(has("checkpoint.load.open"));
  EXPECT_TRUE(has("service.admit"));
  EXPECT_TRUE(has("service.job.run"));
  EXPECT_TRUE(has("service.reply.write"));
}

TEST(FaultInjectorTest, KillModeSpecValidated) {
  FaultInjector injector;
  EXPECT_TRUE(injector.Configure("kill:checkpoint.write.io:1").ok());
  EXPECT_FALSE(injector.Configure("kill:no.such.site:1").ok());
  EXPECT_FALSE(injector.Configure("kill:checkpoint.write.io:0").ok());
}

// ---------------------------------------------------------------------------
// Governed algorithms: immediate trips
// ---------------------------------------------------------------------------

RandomDataset SmallDataset(uint64_t seed = 7) {
  Rng rng(seed);
  return MakeRandomDataset(rng);
}

TEST(GovernedSearchTest, IncognitoDeadlineZeroReturnsEmptyValidPartial) {
  RandomDataset data = SmallDataset();
  AnonymizationConfig config;
  config.k = 2;
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(0));
  PartialResult<IncognitoResult> run =
      RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor));
  ASSERT_TRUE(run.partial());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(run->anonymous_nodes.empty());
  EXPECT_EQ(run->completed_iterations, 0);
  EXPECT_GE(run->stats.deadline_trips, 1);
  EXPECT_EQ(governor.memory().used(), 0);  // everything charged was released
}

TEST(GovernedSearchTest, BottomUpDeadlineZeroReturnsEmptyValidPartial) {
  RandomDataset data = SmallDataset();
  AnonymizationConfig config;
  config.k = 2;
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(0));
  PartialResult<BottomUpResult> run =
      RunBottomUpBfs(data.table, data.qid, config, {}, RunContext::Governed(governor));
  ASSERT_TRUE(run.partial());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(run->anonymous_nodes.empty());
  EXPECT_EQ(run->completed_heights, 0);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(GovernedSearchTest, BinarySearchDeadlineZeroReturnsBracketOnly) {
  RandomDataset data = SmallDataset();
  AnonymizationConfig config;
  config.k = 2;
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(0));
  PartialResult<BinarySearchResult> run =
      RunSamaratiBinarySearch(data.table, data.qid, config, RunContext::Governed(governor));
  ASSERT_TRUE(run.partial());
  EXPECT_FALSE(run->found);
  EXPECT_EQ(run->bracket_high, -1);  // no probe succeeded before the trip
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(GovernedSearchTest, PreCancelledTokenTripsImmediately) {
  RandomDataset data = SmallDataset();
  AnonymizationConfig config;
  config.k = 2;
  CancelToken token;
  // Cancel from a second thread, then run: exercises the cross-thread
  // release/acquire visibility of the token deterministically.
  std::thread canceller([&token] { token.Cancel(); });
  canceller.join();
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  PartialResult<IncognitoResult> run =
      RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor));
  ASSERT_TRUE(run.partial());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_GE(run->stats.cancel_trips, 1);
}

TEST(GovernedSearchTest, SecondThreadCancelStopsARunningSearch) {
  // A lattice walk slow enough (exhaustive bottom-up, no rollup, larger
  // table) that the canceller thread reliably interrupts it mid-run.
  Rng rng(11);
  testing_util::RandomDatasetOptions opts;
  opts.num_attrs = 5;
  opts.max_height = 3;
  opts.num_rows = 4000;
  RandomDataset data = MakeRandomDataset(rng, opts);
  AnonymizationConfig config;
  config.k = 2;
  CancelToken token;
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  PartialResult<BottomUpResult> run =
      RunBottomUpBfs(data.table, data.qid, config, {}, RunContext::Governed(governor));
  canceller.join();
  // Either the cancel landed mid-search (the expected outcome) or the
  // machine was fast enough to finish first; both must be clean.
  if (run.partial()) {
    EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
    EXPECT_GE(run->stats.cancel_trips, 1);
  } else {
    EXPECT_TRUE(run.complete());
  }
  EXPECT_EQ(governor.memory().used(), 0);
}

// ---------------------------------------------------------------------------
// Governed algorithms: equivalence and soundness
// ---------------------------------------------------------------------------

TEST(GovernedSearchTest, GenerousBudgetMatchesUngovernedOnAdultsSweep) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  AnonymizationConfig config;
  config.k = 5;
  for (size_t prefix = 1; prefix <= 3; ++prefix) {
    QuasiIdentifier qid = data->qid.Prefix(prefix);
    PartialResult<IncognitoResult> full = RunIncognito(data->table, qid, config);
    ASSERT_TRUE(full.ok());

    ExecutionGovernor governor;
    governor.SetDeadline(Deadline::AfterMillis(5 * 60 * 1000));
    governor.SetMemoryLimitBytes(int64_t{1} << 33);
    PartialResult<IncognitoResult> governed =
        RunIncognito(data->table, qid, config, {}, RunContext::Governed(governor));
    ASSERT_TRUE(governed.complete()) << governed.status().ToString();
    // Bit-identical answer set, per-iteration survivors included.
    EXPECT_EQ(NodeSet(governed->anonymous_nodes),
              NodeSet(full->anonymous_nodes));
    ASSERT_EQ(governed->per_iteration_survivors.size(),
              full->per_iteration_survivors.size());
    for (size_t i = 0; i < full->per_iteration_survivors.size(); ++i) {
      EXPECT_EQ(NodeSet(governed->per_iteration_survivors[i]),
                NodeSet(full->per_iteration_survivors[i]));
    }
    EXPECT_EQ(governed->completed_iterations,
              static_cast<int64_t>(prefix));
    EXPECT_GT(governed->stats.governor_checks, 0);
    EXPECT_EQ(governor.memory().used(), 0);
  }
}

TEST(GovernedSearchTest, BinarySearchGenerousBudgetMatchesUngoverned) {
  RandomDataset data = SmallDataset(21);
  AnonymizationConfig config;
  config.k = 3;
  PartialResult<BinarySearchResult> full =
      RunSamaratiBinarySearch(data.table, data.qid, config);
  ASSERT_TRUE(full.ok());
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(5 * 60 * 1000));
  PartialResult<BinarySearchResult> governed =
      RunSamaratiBinarySearch(data.table, data.qid, config, RunContext::Governed(governor));
  ASSERT_TRUE(governed.complete());
  EXPECT_EQ(governed->found, full->found);
  if (full->found) {
    EXPECT_EQ(governed->node.ToString(), full->node.ToString());
    EXPECT_EQ(NodeSet(governed->all_at_minimal_height),
              NodeSet(full->all_at_minimal_height));
    EXPECT_EQ(governed->bracket_low, governed->bracket_high);
  }
}

TEST(GovernedSearchTest, MemoryTripYieldsConfirmedSubsetOfFullAnswer) {
  RandomDataset data = SmallDataset(33);
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<BottomUpResult> full = RunBottomUpBfs(data.table, data.qid, config);
  ASSERT_TRUE(full.ok());
  std::set<std::string> full_set = NodeSet(full->anonymous_nodes);

  bool saw_partial = false;
  for (int64_t limit : {int64_t{512}, int64_t{4} << 10, int64_t{64} << 10,
                        int64_t{1} << 20, int64_t{1} << 30}) {
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(limit);
    PartialResult<BottomUpResult> run =
        RunBottomUpBfs(data.table, data.qid, config, {}, RunContext::Governed(governor));
    ASSERT_FALSE(run.hard_error()) << run.status().ToString();
    if (run.partial()) {
      saw_partial = true;
      EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
      EXPECT_GE(run->stats.memory_trips, 1);
    }
    // Sound subset: everything confirmed is in the complete answer.
    for (const SubsetNode& node : run->anonymous_nodes) {
      EXPECT_TRUE(full_set.count(node.ToString()) > 0)
          << "confirmed node " << node.ToString()
          << " is not in the ungoverned answer (limit=" << limit << ")";
    }
    // Exact accounting: the unwound run released every charged byte.
    EXPECT_EQ(governor.memory().used(), 0) << "limit=" << limit;
  }
  EXPECT_TRUE(saw_partial) << "no limit in the sweep tripped the budget";
}

TEST(GovernedSearchTest, IncognitoMemoryTripReleasesAllCharges) {
  RandomDataset data = SmallDataset(55);
  AnonymizationConfig config;
  config.k = 2;
  for (int64_t limit : {int64_t{256}, int64_t{8} << 10, int64_t{256} << 10}) {
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(limit);
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor));
    ASSERT_FALSE(run.hard_error()) << run.status().ToString();
    if (run.partial()) {
      EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    }
    EXPECT_EQ(governor.memory().used(), 0) << "limit=" << limit;
  }
}

TEST(GovernedSearchTest, BottomUpChargesItsTableScans) {
  // Without rollup every node is its own scan, charged like every other
  // governed scan: the zero node of Age, Gender, Race and Marital status
  // (7 + 1 + 3 + 3 key bits) counts into a 2^14-slot array.
  Result<SyntheticDataset> data = MakeAdultsDataset();
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->table.num_rows(), 45222u);
  AnonymizationConfig config;
  config.k = 2;
  BottomUpOptions options;
  options.use_rollup = false;
  ExecutionGovernor governor;
  PartialResult<BottomUpResult> run =
      RunBottomUpBfs(data->table, data->qid.Prefix(4), config, options,
                     RunContext::Governed(governor));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(governor.memory().peak(),
            static_cast<int64_t>((size_t{1} << 14) * sizeof(int64_t)));
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(GovernedCheckerTest, GovernedCheckMatchesAndTrips) {
  RandomDataset data = SmallDataset(77);
  AnonymizationConfig config;
  config.k = 2;
  SubsetNode node = SubsetNode::Full(data.qid.MaxLevels());

  bool plain = IsKAnonymous(data.table, data.qid, node, config);
  ExecutionGovernor governor;
  AlgorithmStats stats;
  Result<bool> governed = IsKAnonymous(data.table, data.qid, node, config,
                                       RunContext::Governed(governor),
                                       &stats);
  ASSERT_TRUE(governed.ok());
  EXPECT_EQ(governed.value(), plain);
  EXPECT_GE(stats.governor_checks, 1);
  EXPECT_EQ(governor.memory().used(), 0);

  ExecutionGovernor expired;
  expired.SetDeadline(Deadline::AfterMillis(0));
  Result<bool> tripped = IsKAnonymous(data.table, data.qid, node, config,
                                      RunContext::Governed(expired), &stats);
  EXPECT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Governed §5 model drivers
// ---------------------------------------------------------------------------

TEST(GovernedModelsTest, MondrianPartialViewIsStillKAnonymous) {
  RandomDataset data = SmallDataset(91);
  AnonymizationConfig config;
  config.k = 3;
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(0));
  PartialResult<MondrianResult> run =
      RunMondrian(data.table, data.qid, config, RunContext::Governed(governor));
  ASSERT_TRUE(run.partial()) << run.status().ToString();
  // Graceful degradation: every tuple is released, just under a coarser
  // (possibly unsplit) partitioning — and each group still has >= k rows.
  EXPECT_EQ(run->view.num_rows(), data.table.num_rows());
  std::map<std::string, int64_t> group_sizes;
  for (size_t r = 0; r < run->view.num_rows(); ++r) {
    std::string key;
    for (size_t i = 0; i < data.qid.size(); ++i) {
      key += run->view.GetValue(r, data.qid.column(i)).ToString();
      key += '\x1f';
    }
    ++group_sizes[key];
  }
  for (const auto& [key, size] : group_sizes) {
    EXPECT_GE(size, config.k) << "undersized group " << key;
  }
}

TEST(GovernedModelsTest, DataflyPartialHasEmptyView) {
  RandomDataset data = SmallDataset(93);
  AnonymizationConfig config;
  config.k = 2;
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(0));
  PartialResult<DataflyResult> run =
      RunDatafly(data.table, data.qid, config, RunContext::Governed(governor));
  ASSERT_TRUE(run.partial());
  // The intermediate recoding is not k-anonymous, so nothing is released.
  EXPECT_EQ(run->view.num_rows(), 0u);
  EXPECT_GE(run->stats.deadline_trips, 1);
  EXPECT_EQ(governor.memory().used(), 0);
}

// ---------------------------------------------------------------------------
// Atomic file writes (robust/safe_io.h)
// ---------------------------------------------------------------------------

/// Every "<path>.tmp.*" temporary next to `path`.
std::vector<std::string> TempFilesOf(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0) {
      found.push_back(entry.path().string());
    }
  }
  return found;
}

TEST(SafeIoTest, ConcurrentWritersOfOnePathNeverTear) {
  // Two daemon jobs naming one checkpoint or output path write it from two
  // threads at once: each write needs its own temporary, or one thread's
  // rename publishes the other's half-written bytes.
  const std::string path = TempPath("safe_io_race.txt");
  const std::string contents[2] = {std::string(200 * 1024, 'a'),
                                   std::string(100 * 1024, 'b')};
  ASSERT_TRUE(WriteFileAtomic(path, contents[0], "checkpoint.write").ok());
  constexpr int kWritesPerThread = 500;
  std::atomic<int> failed_writes{0};
  std::atomic<int> writers_left{2};
  std::vector<std::thread> writers;
  for (const std::string& content : contents) {
    writers.emplace_back([&] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        if (!WriteFileAtomic(path, content, "checkpoint.write").ok()) {
          ++failed_writes;
        }
      }
      --writers_left;
    });
  }
  int reads = 0, torn_reads = 0, failed_reads = 0;
  while (writers_left.load() > 0) {
    Result<std::string> read = ReadFileToString(path, "checkpoint.load");
    ++reads;
    if (!read.ok()) {
      ++failed_reads;
    } else if (read.value() != contents[0] && read.value() != contents[1]) {
      ++torn_reads;
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failed_writes.load(), 0);
  EXPECT_EQ(torn_reads, 0) << "of " << reads << " reads";
  EXPECT_EQ(failed_reads, 0) << "of " << reads << " reads";
  EXPECT_TRUE(TempFilesOf(path).empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault points wired into the library (only in INCOGNITO_FAULTS builds)
// ---------------------------------------------------------------------------

#ifdef INCOGNITO_FAULTS

class FaultPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultPointTest, EveryWriteSiteFailsCleanlyWithoutPartialFile) {
  Table table{Schema({{"a", DataType::kInt64}})};
  table.AppendRowCodes({table.mutable_dictionary(0).GetOrInsert(
      Value(int64_t{1}))});
  for (const std::string& site :
       {std::string("csv.write.open"), std::string("csv.write.io"),
        std::string("csv.write.rename")}) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().ScriptFailNthHit(site, 1);
    std::string path = TempPath("fault_" + site + ".csv");
    std::remove(path.c_str());
    Status written = WriteCsv(table, path);
    EXPECT_FALSE(written.ok()) << site;
    EXPECT_EQ(written.code(), StatusCode::kIOError) << site;
    // No output file and no leaked temporary.
    EXPECT_FALSE(std::ifstream(path).good()) << site;
    EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1) << site;
  }
}

TEST_F(FaultPointTest, WriteSucceedsOnceTheScriptIsConsumed) {
  Table table{Schema({{"a", DataType::kInt64}})};
  table.AppendRowCodes({table.mutable_dictionary(0).GetOrInsert(
      Value(int64_t{1}))});
  FaultInjector::Global().ScriptFailNthHit("csv.write.io", 1);
  std::string path = TempPath("fault_retry.csv");
  EXPECT_FALSE(WriteCsv(table, path).ok());
  // One-shot scripts are consumed when they fire: the retry goes through.
  EXPECT_TRUE(WriteCsv(table, path).ok());
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, ReadOpenFaultReturnsIOError) {
  std::string path = TempPath("fault_read.csv");
  {
    std::ofstream out(path);
    out << "a\n1\n";
  }
  FaultInjector::Global().ScriptFailNthHit("csv.read.open", 1);
  Result<Table> table = ReadCsv(path);
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
  // Retry succeeds (script consumed).
  EXPECT_TRUE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

TEST_F(FaultPointTest, GovernorChargeFaultBehavesLikeBudgetRefusal) {
  FaultInjector::Global().ScriptFailNthHit("governor.charge", 1);
  ExecutionGovernor governor;  // unlimited budget
  Status charged = governor.ChargeMemory(1);
  EXPECT_FALSE(charged.ok());
  EXPECT_EQ(charged.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.memory().used(), 0);  // nothing was charged
}

TEST_F(FaultPointTest, ScanFaultStopsEveryNodeAtATimeSearch) {
  // These runs scan one node at a time instead of through the walk's
  // shared scans; every such scan runs under the run's governor, so the
  // scan's fault site trips the run at its first scan.
  RandomDataset data = SmallDataset();
  AnonymizationConfig config;
  config.k = 2;
  auto arm = [] {
    FaultInjector::Global().Reset();
    FaultInjector::Global().ScriptFailNthHit("freq.batch.scan", 1);
  };
  {
    arm();
    IncognitoOptions unbatched;
    unbatched.batch_scans = false;
    ExecutionGovernor governor;
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, unbatched,
                     RunContext::Governed(governor));
    ASSERT_TRUE(run.partial()) << run.status().ToString();
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(run->anonymous_nodes.empty());
    EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
    EXPECT_EQ(governor.memory().used(), 0);
  }
  {
    arm();
    ExecutionGovernor governor;
    PartialResult<BottomUpResult> run = RunBottomUpBfs(
        data.table, data.qid, config, {}, RunContext::Governed(governor));
    ASSERT_TRUE(run.partial()) << run.status().ToString();
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(run->anonymous_nodes.empty());
    EXPECT_EQ(run->completed_heights, 0);
    EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
    EXPECT_EQ(governor.memory().used(), 0);
  }
  {
    arm();
    ExecutionGovernor governor;
    PartialResult<BinarySearchResult> run = RunSamaratiBinarySearch(
        data.table, data.qid, config, RunContext::Governed(governor));
    ASSERT_TRUE(run.partial()) << run.status().ToString();
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(run->found);
    EXPECT_EQ(run->bracket_high, -1);
    EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
    EXPECT_EQ(governor.memory().used(), 0);
  }
  {
    arm();
    ExecutionGovernor governor;
    PartialResult<DataflyResult> run = RunDatafly(
        data.table, data.qid, config, RunContext::Governed(governor));
    ASSERT_TRUE(run.partial()) << run.status().ToString();
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(run->view.num_rows(), 0u);
    EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
    EXPECT_EQ(governor.memory().used(), 0);
  }
}

TEST_F(FaultPointTest, EveryKnownSitePropagatesACleanStatus) {
  // For each registered site: script its first hit to fail, run a battery
  // of operations that collectively touches every site family, and assert
  // the injected failure surfaced as a Status (no crash) with no partial
  // or temporary file left behind.
  Table table{Schema({{"a", DataType::kString}})};
  table.AppendRowCodes({table.mutable_dictionary(0).GetOrInsert(Value("v"))});
  Result<ValueHierarchy> hierarchy =
      BuildSuppressionHierarchy("a", table.dictionary(0));
  ASSERT_TRUE(hierarchy.ok());

  // The compute-path sites (cube.build, cube.project, freq.batch.scan,
  // incognito.rollup, bottom_up.rollup) only fire inside governed
  // searches, so the battery also runs one search per family — including
  // a 4-thread parallel cube search for the intra-node sites. k is set
  // high enough that low nodes fail, forcing their stored frequency sets
  // to be rolled up.
  RandomDataset search = SmallDataset();
  AnonymizationConfig search_config;
  search_config.k = 10;
  IncognitoOptions cube_opts;
  cube_opts.variant = IncognitoVariant::kCube;
  BottomUpOptions rollup_opts;
  rollup_opts.use_rollup = true;
  auto run_searches = [&](std::vector<Status>* outcomes) {
    {
      ExecutionGovernor g;
      outcomes->push_back(RunIncognito(search.table, search.qid,
                                       search_config, {},
                                       RunContext::Governed(g))
                              .status());
    }
    {
      ExecutionGovernor g;
      outcomes->push_back(RunIncognito(search.table, search.qid,
                                       search_config, cube_opts,
                                       RunContext::Governed(g))
                              .status());
    }
    {
      ExecutionGovernor g;
      outcomes->push_back(RunBottomUpBfs(search.table, search.qid,
                                         search_config, rollup_opts,
                                         RunContext::Governed(g))
                              .status());
    }
    {
      // The governed 4-thread cube search reaches the intra-node sites:
      // the pool-parallel root scan (freq.batch.scan) and the tiers'
      // projections (cube.project).
      ExecutionGovernor g;
      outcomes->push_back(RunIncognito(search.table, search.qid,
                                       search_config, cube_opts,
                                       RunContext::Governed(g, 4))
                              .status());
    }
  };
  // Probe (no scripts armed): the searches must actually reach every
  // compute-path site, or the per-site loop below would vacuously pass.
  FaultInjector::Global().Reset();
  {
    std::vector<Status> probe;
    run_searches(&probe);
    for (const Status& s : probe) EXPECT_TRUE(s.ok()) << s.message();
  }
  for (const char* compute_site :
       {"cube.build", "cube.project", "freq.batch.scan",
        "incognito.rollup", "incognito.subset.schedule",
        "bottom_up.rollup"}) {
    EXPECT_GE(FaultInjector::Global().HitCount(compute_site), 1)
        << "battery searches never reach " << compute_site;
  }

  for (const std::string& site : FaultInjector::KnownSites()) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().ScriptFailNthHit(site, 1);
    std::string csv_path = TempPath("battery.csv");
    std::string hier_path = TempPath("battery_hier.csv");
    std::string bin_path = TempPath("battery.inct");
    std::string ckpt_path = TempPath("battery_ckpt.txt");

    std::vector<Status> outcomes;
    outcomes.push_back(WriteCsv(table, csv_path));
    outcomes.push_back(ReadCsv(csv_path).status());
    outcomes.push_back(WriteHierarchyCsv(hierarchy.value(), hier_path));
    outcomes.push_back(
        ReadHierarchyCsv("a", hier_path, table.dictionary(0)).status());
    outcomes.push_back(WriteTableBinary(table, bin_path));
    outcomes.push_back(ReadTableBinary(bin_path).status());
    {
      // The checkpoint writer/loader sites (no retry at this layer, so a
      // one-shot script surfaces as exactly one failed operation).
      CheckpointSnapshot snap;
      snap.fingerprint.k = 2;
      snap.fingerprint.rows = 1;
      snap.fingerprint.heights = {1};
      CheckpointRecord rec;
      rec.mask = 1;
      SubsetNode node;
      node.dims = {0};
      node.levels = {0};
      rec.survivors.push_back(node);
      snap.records.push_back(rec);
      outcomes.push_back(WriteCheckpoint(ckpt_path, snap));
      outcomes.push_back(LoadCheckpoint(ckpt_path).status());
    }
    ExecutionGovernor governor;
    outcomes.push_back(governor.ChargeMemory(16));
    governor.ReleaseMemory(16);
    run_searches(&outcomes);
    {
      // The service layer's three sites: admission (service.admit fires in
      // ServiceCore::Submit), execution (service.job.run fires at the top
      // of ExecuteJob), and the wire path (service.reply.write fires in
      // WriteReplyLine).  The job reads the CSV the battery wrote above,
      // so the I/O-site scripts (already consumed by then) don't re-fire.
      JobSpec job;
      job.input = csv_path;
      job.qid = {"a"};
      job.hierarchies = {{"a", "suppress"}};
      job.k = 1;
      {
        ServiceConfig service_config;
        service_config.num_workers = 0;  // admit-only; dtor cancels it
        ServiceCore core(service_config);
        outcomes.push_back(core.Submit(job).status());
      }
      ExecutionGovernor job_governor;
      outcomes.push_back(ExecuteJob(job, &job_governor).status);
      int fds[2];
      ASSERT_EQ(pipe(fds), 0) << site;
      outcomes.push_back(WriteReplyLine(fds[1], "{\"ok\":true}"));
      close(fds[0]);
      close(fds[1]);
    }

    EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1)
        << "site " << site << " was never hit by the battery";
    int failures = 0;
    for (const Status& s : outcomes) {
      if (!s.ok()) {
        ++failures;
        EXPECT_FALSE(s.message().empty()) << site;
      }
    }
    EXPECT_GE(failures, 1) << "site " << site
                           << " fired but no operation reported it";
    // Atomic writers never leave temporaries behind, injected or not.
    for (const std::string& p : {csv_path, hier_path, bin_path, ckpt_path}) {
      // (The target may or may not exist depending on which site fired;
      // only the temps must be gone.)
      for (const std::string& tmp : TempFilesOf(p)) {
        ADD_FAILURE() << site << " leaked " << tmp;
      }
      std::remove(p.c_str());
    }
  }
  FaultInjector::Global().Reset();
}

TEST_F(FaultPointTest, RandomFaultsNeverCrashTheSearch) {
  RandomDataset data = SmallDataset(101);
  AnonymizationConfig config;
  config.k = 2;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().EnableRandom(seed, 0.05);
    ExecutionGovernor governor;
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor));
    // Any outcome is acceptable as long as it is a clean Status and the
    // byte accounting balances.
    if (!run.complete()) {
      EXPECT_FALSE(run.status().message().empty()) << "seed=" << seed;
    }
    EXPECT_EQ(governor.memory().used(), 0) << "seed=" << seed;
  }
  FaultInjector::Global().Reset();
}

#endif  // INCOGNITO_FAULTS

}  // namespace
}  // namespace incognito
