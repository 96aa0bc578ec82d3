// Differential tests for the subset-DAG Incognito search
// (src/core/parallel.h): the worker pool, the one governor every worker
// charges and polls, and — the core guarantee — bit-identical results at
// every thread count against the 1-worker (serial) case, plus the sound
// partial-result contract when a budget trips mid-search.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "core/worker_pool.h"
#include "data/adults.h"
#include "data/patients.h"
#include "freq/cube.h"
#include "freq/frequency_set.h"
#include "lattice/lattice.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::GroupsOf;
using testing_util::PooledScan;

using testing_util::MakeRandomDataset;
using testing_util::MakeTwoRowDataset;
using testing_util::NodeSet;
using testing_util::RandomDataset;

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, PartitionCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 4, 8}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{17}, size_t{100}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.Run(n, [&](int worker, size_t begin, size_t end) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, threads);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(WorkerPoolTest, RunIsABarrierAndReusable) {
  WorkerPool pool(4);
  // Sequential Runs see each other's writes without extra synchronization:
  // the barrier at the end of Run orders them.
  std::vector<int64_t> data(1000, 0);
  for (int round = 1; round <= 3; ++round) {
    pool.Run(data.size(), [&](int, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) data[i] += round;
    });
  }
  for (int64_t v : data) EXPECT_EQ(v, 1 + 2 + 3);
}

TEST(WorkerPoolTest, DistinctWorkersRunDistinctChunks) {
  WorkerPool pool(4);
  std::vector<int> owner(64, -1);
  pool.Run(owner.size(), [&](int worker, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) owner[i] = worker;
  });
  // Static partition: workers own contiguous, ascending ranges.
  for (size_t i = 1; i < owner.size(); ++i) {
    EXPECT_GE(owner[i], owner[i - 1]);
  }
  EXPECT_EQ(owner.front(), 0);
  EXPECT_EQ(owner.back(), 3);
}

// ---------------------------------------------------------------------------
// One governor, charged and polled from every thread
// ---------------------------------------------------------------------------

TEST(ExecutionGovernorTest, ChargesExactBytesUnderASmallLimit) {
  // Every charge counts its exact bytes, so a limit of a few hundred bytes
  // admits exactly what fits.
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(500);
  EXPECT_TRUE(governor.ChargeMemory(100).ok());
  EXPECT_EQ(governor.memory().used(), 100);
  EXPECT_TRUE(governor.ChargeMemory(400).ok());  // exactly the limit
  EXPECT_EQ(governor.memory().peak(), 500);
  EXPECT_FALSE(governor.Tripped());
  governor.ReleaseMemory(500);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(ExecutionGovernorTest, OneThreadsRefusalStopsAnotherThread) {
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(1000);
  ASSERT_TRUE(governor.ChargeMemory(900).ok());
  Status refused;
  std::thread other([&] { refused = governor.ChargeMemory(900); });
  other.join();
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // This thread's next checkpoint and charge both see the latched trip.
  EXPECT_EQ(governor.Check().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.ChargeMemory(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.memory().used(), 900);
  governor.ReleaseMemory(900);
  EXPECT_EQ(governor.memory().used(), 0);
  EXPECT_EQ(governor.trips().memory_trips, 1);
}

TEST(ExecutionGovernorTest, CheckObservesCancelAndDeadlineAndLatches) {
  CancelToken token;
  ExecutionGovernor cancelled;
  cancelled.SetCancelToken(&token);
  EXPECT_TRUE(cancelled.Check().ok());
  token.Cancel();
  EXPECT_EQ(cancelled.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.TripStatus().code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ChargeMemory(1).code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.memory().used(), 0);
  EXPECT_EQ(cancelled.trips().cancel_trips, 1);
  EXPECT_EQ(cancelled.trips().checks, 2);  // a latched Check is not counted

  ExecutionGovernor expired;
  expired.SetDeadline(Deadline::AfterMillis(0));
  EXPECT_TRUE(expired.TripStatus().ok());
  EXPECT_EQ(expired.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.trips().deadline_trips, 1);
}

TEST(ExecutionGovernorTest, FourThreadsChargeReleaseAndPollUntilCancelled) {
  CancelToken token;
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  constexpr int kThreads = 4;
  std::atomic<int> running{0};
  std::vector<StatusCode> ended(kThreads, StatusCode::kOk);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      running.fetch_add(1);
      for (int64_t i = 0;; ++i) {
        const int64_t bytes = 1 + (i + t) % 64;
        Status status = governor.Check();
        if (status.ok()) status = governor.ChargeMemory(bytes);
        if (!status.ok()) {
          ended[static_cast<size_t>(t)] = status.code();
          return;
        }
        governor.ReleaseMemory(bytes);
      }
    });
  }
  while (running.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  token.Cancel();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(governor.memory().used(), 0);
  for (StatusCode code : ended) EXPECT_EQ(code, StatusCode::kCancelled);
  const GovernorTrips trips = governor.trips();
  EXPECT_EQ(trips.cancel_trips, 1);
  EXPECT_EQ(trips.memory_trips, 0);
  EXPECT_EQ(trips.deadline_trips, 0);
  EXPECT_GE(trips.checks, kThreads);
}

TEST(ExecutionGovernorTest, PatientsSearchPeakIsTheBytesHeld) {
  // The governor counts exact charges: a search of the six-row Patients
  // table holds a few frequency sets of a few groups each, at any thread
  // count.
  Result<PatientsDataset> patients = MakePatientsDataset();
  ASSERT_TRUE(patients.ok());
  AnonymizationConfig config;
  config.k = 2;
  for (int threads : {1, 4}) {
    ExecutionGovernor governor;
    PartialResult<IncognitoResult> run =
        RunIncognito(patients->table, patients->qid, config, {},
                     RunContext::Governed(governor, threads));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(governor.memory().peak(), 0) << "threads=" << threads;
    EXPECT_LT(governor.memory().peak(), int64_t{64} << 10)
        << "threads=" << threads;
    EXPECT_EQ(governor.memory().used(), 0) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Differential: N threads == 1 thread, bit for bit
// ---------------------------------------------------------------------------

std::vector<std::string> Strings(const std::vector<SubsetNode>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const SubsetNode& n : nodes) out.push_back(n.ToString());
  return out;
}

/// Asserts a multi-threaded result is indistinguishable from the 1-thread
/// one:
/// same answer set (in the same order), same survivor sets per iteration,
/// and the same node-count statistics. governor_checks and the trip
/// counters are excluded — checkpoint cadence is per-worker by design.
void ExpectBitIdentical(const IncognitoResult& serial,
                        const IncognitoResult& parallel) {
  EXPECT_EQ(Strings(serial.anonymous_nodes), Strings(parallel.anonymous_nodes));
  ASSERT_EQ(serial.per_iteration_survivors.size(),
            parallel.per_iteration_survivors.size());
  for (size_t i = 0; i < serial.per_iteration_survivors.size(); ++i) {
    EXPECT_EQ(Strings(serial.per_iteration_survivors[i]),
              Strings(parallel.per_iteration_survivors[i]))
        << "iteration " << i + 1;
  }
  EXPECT_EQ(serial.completed_iterations, parallel.completed_iterations);
  EXPECT_EQ(serial.stats.nodes_checked, parallel.stats.nodes_checked);
  EXPECT_EQ(serial.stats.nodes_marked, parallel.stats.nodes_marked);
  EXPECT_EQ(serial.stats.table_scans, parallel.stats.table_scans);
  EXPECT_EQ(serial.stats.rollups, parallel.stats.rollups);
  EXPECT_EQ(serial.stats.freq_groups_built, parallel.stats.freq_groups_built);
  EXPECT_EQ(serial.stats.candidate_nodes, parallel.stats.candidate_nodes);
}

/// Runs one instance at 1 thread and at 2/4/8 and asserts bit-identity.
void ExpectThreadCountsMatch(const Table& table, const QuasiIdentifier& qid,
                             const AnonymizationConfig& config,
                             const IncognitoOptions& options = {}) {
  PartialResult<IncognitoResult> serial =
      RunIncognito(table, qid, config, options);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 4, 8}) {
    PartialResult<IncognitoResult> p = RunIncognito(
        table, qid, config, options, RunContext::WithThreads(threads));
    ASSERT_TRUE(p.ok()) << "threads=" << threads;
    ExpectBitIdentical(*serial, *p);
  }
}

TEST(ParallelIncognitoTest, AdultsSweepMatchesSerialAtEveryThreadCount) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  AnonymizationConfig config;
  config.k = 5;
  for (size_t prefix = 1; prefix <= 3; ++prefix) {
    QuasiIdentifier qid = data->qid.Prefix(prefix);
    PartialResult<IncognitoResult> serial = RunIncognito(data->table, qid, config);
    ASSERT_TRUE(serial.ok());
    for (int threads : {1, 2, 4, 8}) {
      PartialResult<IncognitoResult> parallel =
          RunIncognito(data->table, qid, config, {}, RunContext::WithThreads(threads));
      ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
      ExpectBitIdentical(*serial, *parallel);
      EXPECT_EQ(parallel->stats.parallel_workers, threads);
    }
  }
}

TEST(ParallelIncognitoTest, EveryVariantMatchesSerialOnRandomDatasets) {
  for (uint64_t seed : {3u, 17u, 101u}) {
    Rng rng(seed);
    RandomDataset data = MakeRandomDataset(rng);
    AnonymizationConfig config;
    config.k = 2 + static_cast<int64_t>(seed % 3);
    for (IncognitoVariant variant :
         {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots,
          IncognitoVariant::kCube}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " variant=" +
                   IncognitoVariantName(variant));
      IncognitoOptions options;
      options.variant = variant;
      ExpectThreadCountsMatch(data.table, data.qid, config, options);
    }
  }
}

TEST(ParallelIncognitoTest, RollupAblationStaysBitIdentical) {
  Rng rng(5);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 3;
  IncognitoOptions options;
  options.use_rollup = false;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data.table, data.qid, config, options);
  ASSERT_TRUE(serial.ok());
  PartialResult<IncognitoResult> parallel =
      RunIncognito(data.table, data.qid, config, options, RunContext::WithThreads(3));
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
  EXPECT_EQ(parallel->stats.rollups, 0);
}

TEST(ParallelIncognitoTest, NonTransitiveMarkingStaysBitIdentical) {
  Rng rng(29);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.mark_transitively = false;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data.table, data.qid, config, options);
  ASSERT_TRUE(serial.ok());
  PartialResult<IncognitoResult> parallel =
      RunIncognito(data.table, data.qid, config, options, RunContext::WithThreads(4));
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
}

TEST(ParallelIncognitoTest, OptionsNumThreadsDispatchesFromRunIncognito) {
  Rng rng(41);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> serial = RunIncognito(data.table, data.qid, config);
  ASSERT_TRUE(serial.ok());
  IncognitoOptions options;
  options.num_threads = 4;
  PartialResult<IncognitoResult> dispatched =
      RunIncognito(data.table, data.qid, config, options);
  ASSERT_TRUE(dispatched.ok());
  ExpectBitIdentical(*serial, *dispatched);
  EXPECT_EQ(dispatched->stats.parallel_workers, 4);
}

TEST(ParallelIncognitoTest, GovernedGenerousBudgetMatchesSerial) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  AnonymizationConfig config;
  config.k = 5;
  PartialResult<IncognitoResult> serial = RunIncognito(data->table, qid, config);
  ASSERT_TRUE(serial.ok());

  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(5 * 60 * 1000));
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<IncognitoResult> governed =
      RunIncognito(data->table, qid, config, {}, RunContext::Governed(governor, 4));
  ASSERT_TRUE(governed.complete()) << governed.status().ToString();
  ExpectBitIdentical(*serial, governed.value());
  EXPECT_EQ(governor.memory().used(), 0);
  EXPECT_GT(governed->stats.governor_checks, 0);
}

// ---------------------------------------------------------------------------
// Trips: cancellation, deadline, memory budgets
// ---------------------------------------------------------------------------

TEST(ParallelIncognitoTest, DeadlineZeroReturnsEmptyValidPartial) {
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  for (int threads : {1, 4}) {
    ExecutionGovernor governor;
    governor.SetDeadline(Deadline::AfterMillis(0));
    PartialResult<IncognitoResult> run = RunIncognito(
        data.table, data.qid, config, {}, RunContext::Governed(governor, threads));
    ASSERT_TRUE(run.partial()) << "threads=" << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
    // The partial contract: exactly completed_iterations survivor sets, no
    // claimed S_n.
    EXPECT_TRUE(run->anonymous_nodes.empty());
    EXPECT_EQ(run->completed_iterations, 0);
    EXPECT_TRUE(run->per_iteration_survivors.empty());
    EXPECT_GE(run->stats.deadline_trips, 1);
    EXPECT_EQ(governor.memory().used(), 0);
  }
}

TEST(ParallelIncognitoTest, PreCancelledTokenTripsCleanly) {
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  CancelToken token;
  token.Cancel();
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  PartialResult<IncognitoResult> run =
      RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
  ASSERT_TRUE(run.partial());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_GE(run->stats.cancel_trips, 1);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(ParallelIncognitoTest, MidSearchCancelFromSecondThreadDrainsCleanly) {
  // A search slow enough (5 attributes, no rollup, larger table) that the
  // canceller thread reliably lands mid-run; every worker must latch and
  // the pool must drain with every charged byte released.
  Rng rng(11);
  testing_util::RandomDatasetOptions opts;
  opts.num_attrs = 5;
  opts.max_height = 3;
  opts.num_rows = 4000;
  RandomDataset data = MakeRandomDataset(rng, opts);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.use_rollup = false;
  CancelToken token;
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  PartialResult<IncognitoResult> run = RunIncognito(
      data.table, data.qid, config, options, RunContext::Governed(governor, 4));
  canceller.join();
  if (run.partial()) {
    EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
    EXPECT_GE(run->stats.cancel_trips, 1);
    // Everything proven before the trip is sound: completed iterations
    // carry their full survivor sets.
    EXPECT_EQ(run->per_iteration_survivors.size(),
              static_cast<size_t>(run->completed_iterations));
  } else {
    EXPECT_TRUE(run.complete());
  }
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(ParallelIncognitoTest, BudgetTripYieldsSoundPrefixAndBoundedPeak) {
  Rng rng(33);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> full = RunIncognito(data.table, data.qid, config);
  ASSERT_TRUE(full.ok());

  bool saw_partial = false;
  for (int64_t limit : {int64_t{512}, int64_t{4} << 10, int64_t{64} << 10,
                        int64_t{1} << 20, int64_t{16} << 20}) {
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(limit);
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
    ASSERT_FALSE(run.hard_error()) << run.status().ToString();
    // Every worker's charge goes to the one budget, which refuses any
    // charge past the limit, so its peak never exceeds it.
    EXPECT_LE(governor.memory().peak(), limit) << "limit=" << limit;
    EXPECT_EQ(governor.memory().used(), 0) << "limit=" << limit;
    if (run.partial()) {
      saw_partial = true;
      EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
      EXPECT_GE(run->stats.memory_trips, 1);
      // Sound prefix: every completed iteration's survivor set equals the
      // unconstrained run's.
      ASSERT_LE(run->per_iteration_survivors.size(),
                full->per_iteration_survivors.size());
      for (size_t i = 0; i < run->per_iteration_survivors.size(); ++i) {
        EXPECT_EQ(Strings(run->per_iteration_survivors[i]),
                  Strings(full->per_iteration_survivors[i]));
      }
    } else {
      ExpectBitIdentical(*full, run.value());
    }
  }
  EXPECT_TRUE(saw_partial) << "no limit in the sweep tripped; weaken limits";
}

// ---------------------------------------------------------------------------
// Differential: a pool-parallel FrequencySet::ComputeBatch == the serial
// scan, bit for bit, on every fixture dataset.
// ---------------------------------------------------------------------------

void ExpectSameFrequencySet(const FrequencySet& serial,
                            const FrequencySet& parallel) {
  EXPECT_EQ(GroupsOf(serial), GroupsOf(parallel));
  EXPECT_EQ(serial.TotalCount(), parallel.TotalCount());
  EXPECT_EQ(serial.MinCount(), parallel.MinCount());
  EXPECT_EQ(serial.MemoryBytes(), parallel.MemoryBytes());
}

/// Sweeps serial-vs-parallel scans over a representative node set of
/// `qid` at 1/2/4/8 threads: the full bottom node, every single
/// attribute, and the full node one level up on every dimension.
void SweepPooledScan(const Table& table, const QuasiIdentifier& qid) {
  const size_t n = qid.size();
  std::vector<SubsetNode> nodes;
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  nodes.emplace_back(dims, std::vector<int32_t>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    nodes.emplace_back(std::vector<int32_t>{static_cast<int32_t>(i)},
                       std::vector<int32_t>{0});
  }
  std::vector<int32_t> up(n);
  for (size_t i = 0; i < n; ++i) {
    up[i] = qid.hierarchy(i).height() >= 1 ? 1 : 0;
  }
  nodes.emplace_back(dims, up);
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    for (const SubsetNode& node : nodes) {
      SCOPED_TRACE(node.ToString() + " threads=" + std::to_string(threads));
      FrequencySet serial = FrequencySet::Compute(table, qid, node);
      ExpectSameFrequencySet(serial, PooledScan(table, qid, node, pool));
    }
  }
}

TEST(PooledScanTest, MatchesSerialOnEveryFixture) {
  {
    Result<PatientsDataset> patients = MakePatientsDataset();
    ASSERT_TRUE(patients.ok());
    SweepPooledScan(patients->table, patients->qid);
  }
  {
    AdultsOptions adults;
    adults.num_rows = 300;
    Result<SyntheticDataset> data = MakeAdultsDataset(adults);
    ASSERT_TRUE(data.ok());
    SweepPooledScan(data->table, data->qid.Prefix(3));
  }
  for (uint64_t seed : {uint64_t{3}, uint64_t{17}, uint64_t{101}}) {
    Rng rng(seed);
    RandomDataset data = MakeRandomDataset(rng);
    SweepPooledScan(data.table, data.qid);
  }
  {
    RandomDataset wide = testing_util::MakeWideFallbackDataset(400);
    SweepPooledScan(wide.table, wide.qid);
  }
}

TEST(PooledScanTest, GovernedScanMatchesAndReleasesToZero) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  std::vector<int32_t> dims = {0, 1, 2};
  SubsetNode node(dims, {0, 0, 0});
  FrequencySet serial = FrequencySet::Compute(data->table, qid, node);
  WorkerPool pool(4);
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 30);
  FrequencySet parallel = PooledScan(data->table, qid, node, pool, &governor);
  EXPECT_FALSE(governor.Tripped());
  ExpectSameFrequencySet(serial, parallel);
  // The chunks' charges are transient: released before returning, so the
  // caller owns the only live charge (here: none yet).
  EXPECT_EQ(governor.memory().used(), 0);
  EXPECT_GE(governor.trips().checks, 1);
}

TEST(PooledScanTest, TinyBudgetTripsToEmptySetWithNothingLeaked) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  SubsetNode node({0, 1, 2}, {0, 0, 0});
  WorkerPool pool(4);
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(16);  // smaller than a single group entry
  FrequencySet tripped = PooledScan(data->table, qid, node, pool, &governor);
  EXPECT_TRUE(governor.Tripped());
  EXPECT_EQ(tripped.NumGroups(), 0u);
  EXPECT_EQ(governor.memory().used(), 0);
  // Callers detect the trip exactly like a serial refusal: the latched
  // status comes back from the next charge.
  EXPECT_EQ(governor.ChargeMemory(0).code(), StatusCode::kResourceExhausted);
}

TEST(ParallelIncognitoTest, CubeVariantMatchesSerialAtEveryThreadCount) {
  // End-to-end: the cube variant's parallel search builds the cube across
  // its pool; results and work counters must match the serial search at
  // every thread count.
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  AnonymizationConfig config;
  config.k = 5;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data->table, qid, config, options);
  ASSERT_TRUE(serial.ok());
  for (int threads : {1, 2, 4, 8}) {
    PartialResult<IncognitoResult> parallel =
        RunIncognito(data->table, qid, config, options, RunContext::WithThreads(threads));
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    ExpectBitIdentical(*serial, *parallel);
  }
}

TEST(ParallelIncognitoTest, GovernedCubeVariantReleasesEveryChargeToZero) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  AnonymizationConfig config;
  config.k = 5;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data->table, qid, config, options);
  ASSERT_TRUE(serial.ok());
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<IncognitoResult> governed =
      RunIncognito(data->table, qid, config, options, RunContext::Governed(governor, 4));
  ASSERT_TRUE(governed.complete()) << governed.status().ToString();
  ExpectBitIdentical(*serial, governed.value());
  EXPECT_EQ(governed->stats.parallel_workers, 4);
  // Acceptance: every charge — search workers, scan chunks, cube
  // projections — released back to the budget.
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(ParallelIncognitoTest, GovernedSuperRootsVariantMatchesSerial) {
  // The super-roots family scans route through the governed parallel
  // frequency-set scan; the answer must not change.
  Rng rng(59);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 3;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kSuperRoots;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data.table, data.qid, config, options);
  ASSERT_TRUE(serial.ok());
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<IncognitoResult> governed =
      RunIncognito(data.table, data.qid, config, options, RunContext::Governed(governor, 4));
  ASSERT_TRUE(governed.complete()) << governed.status().ToString();
  ExpectBitIdentical(*serial, governed.value());
  EXPECT_EQ(governor.memory().used(), 0);
}

// ---------------------------------------------------------------------------
// Fault injection (only with -DINCOGNITO_FAULTS=ON)
// ---------------------------------------------------------------------------

TEST(ParallelFaultTest, RandomFaultsNeverCrashTheParallelSearch) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().EnableRandom(seed, 0.05);
    ExecutionGovernor governor;
    governor.SetDeadline(Deadline::AfterMillis(60 * 1000));
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
    // Injected failures surface as clean partials (latched like a refused
    // charge) — never a crash, never leaked charges.
    if (run.partial()) {
      EXPECT_TRUE(IsResourceGovernance(run.status().code()))
          << run.status().ToString();
    }
    EXPECT_EQ(governor.memory().used(), 0) << "seed=" << seed;
  }
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, BatchScanFaultYieldsEmptySetAndLatchedTrip) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  const size_t n = data.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  SubsetNode node(dims, std::vector<int32_t>(n, 0));
  FaultInjector::Global().Reset();
  FaultInjector::Global().ScriptFailNthHit("freq.batch.scan", 1);
  WorkerPool pool(4);
  ExecutionGovernor governor;
  FrequencySet fs = PooledScan(data.table, data.qid, node, pool, &governor);
  EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
  EXPECT_EQ(fs.NumGroups(), 0u);
  EXPECT_TRUE(governor.Tripped());
  EXPECT_EQ(governor.memory().used(), 0);
  // The one-shot script is consumed: a retry of the scan succeeds — but
  // on a fresh governor, since the first one stays latched.
  ExecutionGovernor retry_governor;
  FrequencySet retry =
      PooledScan(data.table, data.qid, node, pool, &retry_governor);
  EXPECT_FALSE(retry_governor.Tripped());
  EXPECT_EQ(GroupsOf(retry),
            GroupsOf(FrequencySet::Compute(data.table, data.qid, node)));
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, CubeProjectFaultYieldsEmptyCubeAndBalances) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  FaultInjector::Global().Reset();
  FaultInjector::Global().ScriptFailNthHit("cube.project", 1);
  WorkerPool pool(4);
  ExecutionGovernor governor;
  ZeroGenCube::BuildInfo info;
  ZeroGenCube cube =
      ZeroGenCube::Build(data.table, data.qid, pool, &info, &governor);
  EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
  EXPECT_TRUE(governor.Tripped());
  EXPECT_EQ(cube.num_subsets(), 0u);
  EXPECT_EQ(info.num_subsets, 0u);
  EXPECT_EQ(governor.memory().used(), 0);
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, NewSitesSurfaceAsCleanPartialsEndToEnd) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  // The governed parallel cube search reaches both compute sites: the
  // parallel root scan ("freq.batch.scan") and the tiers' projections
  // ("cube.project"). A scripted failure at either must surface as a
  // governance partial with the byte accounting balanced.
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  for (const char* site : {"freq.batch.scan", "cube.project"}) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().ScriptFailNthHit(site, 1);
    ExecutionGovernor governor;
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, options, RunContext::Governed(governor, 4));
    EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1) << site;
    ASSERT_TRUE(run.partial()) << site;
    EXPECT_TRUE(IsResourceGovernance(run.status().code()))
        << site << ": " << run.status().ToString();
    EXPECT_EQ(governor.memory().used(), 0) << site;
  }
  FaultInjector::Global().Reset();
}

// ---------------------------------------------------------------------------
// Subset-DAG scheduling across variants, ablations, and key widths
// ---------------------------------------------------------------------------

TEST(SubsetDagTest, EveryVariantAndAblationMatchesAtEveryThreadCount) {
  Rng rng(23);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 3;
  for (IncognitoVariant variant :
       {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots,
        IncognitoVariant::kCube}) {
    IncognitoOptions options;
    options.variant = variant;
    ExpectThreadCountsMatch(data.table, data.qid, config, options);
  }
  IncognitoOptions no_rollup;
  no_rollup.use_rollup = false;
  ExpectThreadCountsMatch(data.table, data.qid, config, no_rollup);
  IncognitoOptions direct_marking;
  direct_marking.mark_transitively = false;
  ExpectThreadCountsMatch(data.table, data.qid, config, direct_marking);
}

TEST(SubsetDagTest, WideFallbackKeysMatchAtEveryThreadCount) {
  // The vector-key fallback path (domains beyond the 64-bit packed keys)
  // must schedule identically.
  RandomDataset data = testing_util::MakeWideFallbackDataset(120);
  AnonymizationConfig config;
  config.k = 2;
  ExpectThreadCountsMatch(data.table, data.qid, config);
}

// ---------------------------------------------------------------------------
// Wide quasi-identifiers: the 64-bit subset mask
// ---------------------------------------------------------------------------

TEST(WideQidTest, SeventeenAttributesMatchOracleAndResumeFromBit16Masks) {
  // 17 attributes: one past the 16 the subset DAG once capped at. One test,
  // so the 2^17-subset search runs once for the oracle, thread-count, and
  // checkpoint legs.
  RandomDataset data = MakeTwoRowDataset(17);
  AnonymizationConfig config;
  config.k = 2;
  GeneralizationLattice lattice(data.qid.MaxLevels());
  std::set<std::string> oracle;
  for (const LevelVector& v : lattice.AllNodesByHeight()) {
    SubsetNode node = SubsetNode::Full(v);
    if (IsKAnonymous(data.table, data.qid, node, config)) {
      oracle.insert(node.ToString());
    }
  }
  ASSERT_EQ(oracle.size(), 1u);

  const std::string path = testing_util::TempPath("wide_qid.ckpt");
  std::remove(path.c_str());
  CheckpointPolicy writer;
  writer.path = path;
  writer.interval_ms = int64_t{3600} * 1000;  // first and final write only
  RunContext write_ctx;
  write_ctx.checkpoint = &writer;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data.table, data.qid, config, {}, write_ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(NodeSet(serial->anonymous_nodes), oracle);
  // One surviving candidate per attribute subset, plus the failed base
  // level of each single-attribute chain; every candidate is checked.
  const int64_t subsets = (int64_t{1} << 17) - 1;
  EXPECT_EQ(serial->stats.candidate_nodes, subsets + 17);
  EXPECT_EQ(serial->stats.nodes_checked, subsets + 17);
  size_t survivors = 0;
  for (const auto& level : serial->per_iteration_survivors) {
    survivors += level.size();
  }
  EXPECT_EQ(static_cast<int64_t>(survivors), subsets);

  PartialResult<IncognitoResult> parallel =
      RunIncognito(data.table, data.qid, config, {}, RunContext::WithThreads(4));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(NodeSet(parallel->anonymous_nodes), oracle);
  ExpectBitIdentical(*serial, *parallel);

  // The checkpoint holds every subset; keep those of size <= 2, which
  // include the masks with bit 16 set.
  Result<CheckpointSnapshot> snap = LoadCheckpoint(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_EQ(snap->records.size(), static_cast<size_t>(subsets));
  const uint64_t bit16 = uint64_t{1} << 16;
  CheckpointSnapshot cut;
  cut.fingerprint = snap->fingerprint;
  for (const CheckpointRecord& rec : snap->records) {
    if (__builtin_popcountll(rec.mask) <= 2) cut.records.push_back(rec);
  }
  ASSERT_EQ(cut.records.size(), 17u + 136u);
  const CheckpointRecord& widest = cut.records.back();
  EXPECT_EQ(widest.mask, bit16 | (bit16 >> 1));
  ASSERT_EQ(widest.survivors.size(), 1u);
  EXPECT_EQ(widest.survivors[0].dims, (std::vector<int32_t>{15, 16}));

  // The cut round-trips byte-for-byte through the text format...
  const std::string text = SerializeCheckpoint(cut);
  Result<CheckpointSnapshot> reparsed = ParseCheckpoint(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializeCheckpoint(*reparsed), text);

  // ...and resumes: every kept subset restores, the rest are searched.
  ASSERT_TRUE(WriteCheckpoint(path, cut).ok());
  CheckpointPolicy resume = writer;
  resume.resume = ResumeMode::kRequire;
  RunContext resume_ctx = RunContext::WithThreads(4);
  resume_ctx.checkpoint = &resume;
  PartialResult<IncognitoResult> resumed =
      RunIncognito(data.table, data.qid, config, {}, resume_ctx);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->stats.restored_subsets,
            static_cast<int64_t>(cut.records.size()));
  EXPECT_EQ(resumed->stats.restored_iterations, 2);
  ExpectBitIdentical(*serial, *resumed);
  std::remove(path.c_str());
}

TEST(WideQidTest, ThirtyThreeAttributesAreRejectedBeforeAnyWork) {
  RandomDataset data = MakeTwoRowDataset(33);
  AnonymizationConfig config;
  config.k = 2;
  ExecutionGovernor governor;
  PartialResult<IncognitoResult> run = RunIncognito(
      data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
  ASSERT_TRUE(run.hard_error());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  // Not even the subset task table was charged.
  EXPECT_EQ(governor.memory().peak(), 0);
  EXPECT_EQ(governor.trips().checks, 0);
}

TEST(WideQidTest, ThirtyTwoAttributesAreRefusedBeforeTheTaskTable) {
  // 2^32 subset task slots outgrow physical memory. Without a budget the
  // charge alone would pass and the allocation would throw, so the search
  // refuses first: a sound empty partial with nothing charged.
  RandomDataset data = MakeTwoRowDataset(32);
  AnonymizationConfig config;
  config.k = 2;
  for (int threads : {1, 4}) {
    const std::string context = "threads=" + std::to_string(threads);
    PartialResult<IncognitoResult> plain = RunIncognito(
        data.table, data.qid, config, {}, RunContext::WithThreads(threads));
    ASSERT_TRUE(plain.partial()) << context;
    EXPECT_EQ(plain.status().code(), StatusCode::kResourceExhausted)
        << context;
    EXPECT_TRUE(plain->anonymous_nodes.empty()) << context;
    EXPECT_EQ(plain->completed_iterations, 0) << context;

    ExecutionGovernor unlimited;
    PartialResult<IncognitoResult> governed =
        RunIncognito(data.table, data.qid, config, {},
                     RunContext::Governed(unlimited, threads));
    ASSERT_TRUE(governed.partial()) << context;
    EXPECT_EQ(governed.status().code(), StatusCode::kResourceExhausted)
        << context;
    EXPECT_EQ(unlimited.memory().used(), 0) << context;
  }
}

TEST(WideQidTest, CubeRunsWiderThanTwentyFourAttributesAreRejected) {
  // One frequency set per attribute subset: 2^25 cube slots and subset
  // tasks would take gigabytes before the first projection, none of it
  // charged, so a wide Cube run is refused before any work.
  RandomDataset data = MakeTwoRowDataset(25);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  for (int threads : {1, 4}) {
    const std::string context = "threads=" + std::to_string(threads);
    PartialResult<IncognitoResult> plain =
        RunIncognito(data.table, data.qid, config, options,
                     RunContext::WithThreads(threads));
    ASSERT_TRUE(plain.hard_error()) << context;
    EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument) << context;

    ExecutionGovernor governor;
    PartialResult<IncognitoResult> governed =
        RunIncognito(data.table, data.qid, config, options,
                     RunContext::Governed(governor, threads));
    ASSERT_TRUE(governed.hard_error()) << context;
    EXPECT_EQ(governed.status().code(), StatusCode::kInvalidArgument)
        << context;
    EXPECT_EQ(governor.memory().peak(), 0) << context;
    EXPECT_EQ(governor.trips().checks, 0) << context;
  }
}

TEST(ParallelFaultTest, SubsetScheduleFaultSurfacesAsCleanPartial) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  // A scripted failure at the subset-DAG scheduler's dispatch site
  // ("incognito.subset.schedule") must latch like a refused charge:
  // governance partial, honest completed_iterations, balanced bytes.
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  FaultInjector::Global().Reset();
  FaultInjector::Global().ScriptFailNthHit("incognito.subset.schedule", 1);
  ExecutionGovernor governor;
  PartialResult<IncognitoResult> run = RunIncognito(
      data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
  EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
  ASSERT_TRUE(run.partial()) << run.status().ToString();
  EXPECT_TRUE(IsResourceGovernance(run.status().code()))
      << run.status().ToString();
  EXPECT_EQ(run->per_iteration_survivors.size(),
            static_cast<size_t>(run->completed_iterations));
  EXPECT_EQ(governor.memory().used(), 0);
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, RandomFaultsNeverCrashTheParallelCubeSearch) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  // The cube-variant soak additionally sweeps the cube build's fault
  // handling: a projection failure must stop every worker cleanly.
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().EnableRandom(seed, 0.05);
    ExecutionGovernor governor;
    governor.SetDeadline(Deadline::AfterMillis(60 * 1000));
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, options, RunContext::Governed(governor, 4));
    if (run.partial()) {
      EXPECT_TRUE(IsResourceGovernance(run.status().code()))
          << run.status().ToString();
    }
    EXPECT_EQ(governor.memory().used(), 0) << "seed=" << seed;
  }
  FaultInjector::Global().Reset();
}

}  // namespace
}  // namespace incognito
