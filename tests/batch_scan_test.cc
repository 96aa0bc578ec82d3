// Differential and property tests for scan-sharing batched level
// evaluation (docs/PARALLELISM.md "Scan-sharing batch evaluation"):
// FrequencySet::ComputeBatch must equal per-node FrequencySet::Compute
// bit for bit, and an IncognitoOptions::batch_scans run must be
// indistinguishable from an unbatched run — same survivors, same
// per-iteration sets, same deterministic counters — except that
// table_scans counts one shared scan per (attribute subset, level)
// group instead of one scan per node.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "core/worker_pool.h"
#include "data/adults.h"
#include "freq/frequency_set.h"
#include "hierarchy/hierarchy.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::GroupsOf;
using testing_util::MakeRandomDataset;
using testing_util::MakeWideFallbackDataset;
using testing_util::RandomDataset;

std::vector<std::string> Strings(const std::vector<SubsetNode>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const SubsetNode& n : nodes) out.push_back(n.ToString());
  return out;
}

/// Asserts a batched run is indistinguishable from the unbatched
/// reference modulo scan amortization: identical survivors, identical
/// per-iteration survivor sets, and identical deterministic counters —
/// except table_scans, which may only shrink (shared scans), and
/// batched_scan_nodes, which only the batched run accumulates.
void ExpectIdenticalModuloScans(const IncognitoResult& unbatched,
                                const IncognitoResult& batched) {
  EXPECT_EQ(Strings(unbatched.anonymous_nodes),
            Strings(batched.anonymous_nodes));
  ASSERT_EQ(unbatched.per_iteration_survivors.size(),
            batched.per_iteration_survivors.size());
  for (size_t i = 0; i < unbatched.per_iteration_survivors.size(); ++i) {
    EXPECT_EQ(Strings(unbatched.per_iteration_survivors[i]),
              Strings(batched.per_iteration_survivors[i]))
        << "iteration " << i + 1;
  }
  EXPECT_EQ(unbatched.completed_iterations, batched.completed_iterations);
  EXPECT_EQ(unbatched.stats.nodes_checked, batched.stats.nodes_checked);
  EXPECT_EQ(unbatched.stats.nodes_marked, batched.stats.nodes_marked);
  EXPECT_EQ(unbatched.stats.rollups, batched.stats.rollups);
  EXPECT_EQ(unbatched.stats.freq_groups_built,
            batched.stats.freq_groups_built);
  EXPECT_EQ(unbatched.stats.candidate_nodes, batched.stats.candidate_nodes);
  EXPECT_LE(batched.stats.table_scans, unbatched.stats.table_scans);
  EXPECT_EQ(unbatched.stats.batched_scan_nodes, 0);
}

/// Runs the unbatched 1-thread reference, then sweeps the batched run over
/// {1,2,4,8} threads and asserts every leg matches modulo scans — and that
/// all batched legs agree on table_scans among themselves (thread-count
/// independence).
void SweepBatchedAgainstUnbatched(const Table& table,
                                  const QuasiIdentifier& qid,
                                  const AnonymizationConfig& config,
                                  IncognitoOptions options = {}) {
  options.batch_scans = false;
  PartialResult<IncognitoResult> unbatched =
      RunIncognito(table, qid, config, options);
  ASSERT_TRUE(unbatched.ok());
  EXPECT_EQ(unbatched->stats.batched_scan_nodes, 0);
  EXPECT_EQ(unbatched->stats.batch_scan_seconds, 0.0);

  options.batch_scans = true;
  PartialResult<IncognitoResult> serial =
      RunIncognito(table, qid, config, options);
  ASSERT_TRUE(serial.ok());
  ExpectIdenticalModuloScans(*unbatched, *serial);

  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(StringPrintf("threads=%d", threads));
    PartialResult<IncognitoResult> run = RunIncognito(
        table, qid, config, options, RunContext::WithThreads(threads));
    ASSERT_TRUE(run.ok());
    ExpectIdenticalModuloScans(*unbatched, *run);
    // Scan amortization itself is deterministic: every thread count
    // produces the 1-thread batched counts.
    EXPECT_EQ(run->stats.table_scans, serial->stats.table_scans);
    EXPECT_EQ(run->stats.batched_scan_nodes, serial->stats.batched_scan_nodes);
  }
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A dataset with zero rows: every frequency set is empty, every node is
/// vacuously k-anonymous, and the batch evaluator must not trip over the
/// empty scan.
RandomDataset MakeZeroRowDataset() {
  Rng rng(13);
  testing_util::RandomDatasetOptions opts;
  opts.num_rows = 0;
  return MakeRandomDataset(rng, opts);
}

/// Single-group saturation: every row is identical, so every node of
/// every lattice collapses to one group of size num_rows — the densest
/// possible per-node map, shared across a whole batch.
RandomDataset MakeSingleGroupDataset(size_t num_rows) {
  const size_t kAttrs = 3;
  std::vector<ColumnSpec> specs;
  for (size_t i = 0; i < kAttrs; ++i) {
    specs.push_back({StringPrintf("attr%zu", i), DataType::kString});
  }
  Table table{Schema(specs)};
  Rng rng(97);
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < kAttrs; ++i) {
    ValueHierarchy h = testing_util::MakeRandomHierarchy(
        StringPrintf("attr%zu", i), /*domain_size=*/4, /*height=*/2, rng);
    Dictionary& dict = table.mutable_dictionary(i);
    for (int32_t c = 0; c < 4; ++c) dict.GetOrInsert(h.LevelValue(0, c));
    hierarchies.emplace_back(StringPrintf("attr%zu", i), std::move(h));
  }
  std::vector<int32_t> codes(kAttrs, 0);
  for (size_t r = 0; r < num_rows; ++r) table.AppendRowCodes(codes);
  Result<QuasiIdentifier> qid =
      QuasiIdentifier::Create(table, std::move(hierarchies));
  RandomDataset out;
  out.table = std::move(table);
  out.qid = std::move(qid).value();
  return out;
}

// ---------------------------------------------------------------------------
// Differential: batched == unbatched on every fixture, every thread count
// ---------------------------------------------------------------------------

TEST(BatchScanDifferentialTest, AdultsPrefixesMatchUnbatched) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  AnonymizationConfig config;
  config.k = 5;
  for (size_t prefix = 1; prefix <= 3; ++prefix) {
    SCOPED_TRACE("prefix=" + std::to_string(prefix));
    SweepBatchedAgainstUnbatched(data->table, data->qid.Prefix(prefix),
                                 config);
  }
}

TEST(BatchScanDifferentialTest, WideFallbackKeysMatchUnbatched) {
  // The vector-key fallback path (domains beyond the 64-bit packed keys)
  // must batch identically.
  RandomDataset wide = MakeWideFallbackDataset(120);
  AnonymizationConfig config;
  config.k = 2;
  SweepBatchedAgainstUnbatched(wide.table, wide.qid, config);
}

TEST(BatchScanDifferentialTest, ZeroRowTableMatchesUnbatched) {
  RandomDataset data = MakeZeroRowDataset();
  AnonymizationConfig config;
  config.k = 2;
  SweepBatchedAgainstUnbatched(data.table, data.qid, config);
}

TEST(BatchScanDifferentialTest, SingleGroupSaturationMatchesUnbatched) {
  RandomDataset data = MakeSingleGroupDataset(200);
  AnonymizationConfig config;
  config.k = 5;
  SweepBatchedAgainstUnbatched(data.table, data.qid, config);
}

TEST(BatchScanDifferentialTest, EveryVariantAndAblationMatchesUnbatched) {
  Rng rng(23);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 3;
  for (IncognitoVariant variant :
       {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots,
        IncognitoVariant::kCube}) {
    SCOPED_TRACE(IncognitoVariantName(variant));
    IncognitoOptions options;
    options.variant = variant;
    SweepBatchedAgainstUnbatched(data.table, data.qid, config, options);
  }
  // With rollup ablated, every unmarked node scans — the configuration
  // where batching amortizes the most.
  IncognitoOptions no_rollup;
  no_rollup.use_rollup = false;
  SweepBatchedAgainstUnbatched(data.table, data.qid, config, no_rollup);
  IncognitoOptions direct_marking;
  direct_marking.mark_transitively = false;
  SweepBatchedAgainstUnbatched(data.table, data.qid, config, direct_marking);
}

TEST(BatchScanDifferentialTest, BasicVariantAmortizationIsExact) {
  // For Basic Incognito (no family scans) every scan-required node is fed
  // from a batch, so batched_scan_nodes must equal the unbatched run's
  // table_scans exactly — the batch pre-pass classifies nodes with the
  // same preference order ComputeFrequencySet uses.
  for (uint64_t seed : {3u, 17u, 101u}) {
    Rng rng(seed);
    RandomDataset data = MakeRandomDataset(rng);
    AnonymizationConfig config;
    config.k = 2 + static_cast<int64_t>(seed % 3);
    IncognitoOptions options;
    options.batch_scans = false;
    PartialResult<IncognitoResult> unbatched =
        RunIncognito(data.table, data.qid, config, options);
    ASSERT_TRUE(unbatched.ok());
    options.batch_scans = true;
    PartialResult<IncognitoResult> batched =
        RunIncognito(data.table, data.qid, config, options);
    ASSERT_TRUE(batched.ok());
    ExpectIdenticalModuloScans(*unbatched, *batched);
    EXPECT_EQ(batched->stats.batched_scan_nodes,
              unbatched->stats.table_scans)
        << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Scan accounting: one scan per (attribute subset, level) group
// ---------------------------------------------------------------------------

TEST(BatchScanCountingTest, OneScanPerSubsetLevelGroupOnHandBuiltLattice) {
  // Two attributes, each with a 4 -> 2 -> 1 hierarchy (values 0,1 -> g0;
  // 2,3 -> g1) and rows chosen so level-0 nodes fail, level-1 nodes pass:
  //   A codes: 0 1 2 3      B codes: 0 2 1 3
  // With rollup ablated (every unmarked node scans), the walk is exactly:
  //   iter 1: <A:0> fail, <B:0> fail, <A:1> pass, <B:1> pass
  //           -> 4 scans either way (singleton (subset, level) groups)
  //   iter 2: (1,1) fail at level 2; (1,2) and (2,1) pass at level 3
  //           -> unbatched 3 scans; batched 2 (level 3 shares one scan)
  // so unbatched table_scans = 7, batched = 6 = the number of
  // (subset, level) groups holding at least one scan-required node.
  std::vector<ColumnSpec> specs = {{"A", DataType::kString},
                                   {"B", DataType::kString}};
  Table table{Schema(specs)};
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (const std::string name : {"A", "B"}) {
    std::vector<std::vector<Value>> levels(3);
    // Values built in place: moving a temporary Value trips a GCC 12
    // -Wmaybe-uninitialized false positive inside std::variant.
    for (int v = 0; v < 4; ++v) {
      levels[0].emplace_back(name + "_v" + std::to_string(v));
    }
    for (int g = 0; g < 2; ++g) {
      levels[1].emplace_back(name + "_g" + std::to_string(g));
    }
    levels[2].emplace_back("*");
    std::vector<std::vector<int32_t>> parents = {{0, 0, 1, 1}, {0, 0}};
    ValueHierarchy h = ValueHierarchy::Create(name, levels, parents).value();
    Dictionary& dict = table.mutable_dictionary(name == "A" ? 0 : 1);
    for (int32_t c = 0; c < 4; ++c) dict.GetOrInsert(h.LevelValue(0, c));
    hierarchies.emplace_back(name, std::move(h));
  }
  table.AppendRowCodes({0, 0});
  table.AppendRowCodes({1, 2});
  table.AppendRowCodes({2, 1});
  table.AppendRowCodes({3, 3});
  Result<QuasiIdentifier> qid =
      QuasiIdentifier::Create(table, std::move(hierarchies));
  ASSERT_TRUE(qid.ok());

  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.use_rollup = false;
  options.batch_scans = false;
  PartialResult<IncognitoResult> unbatched =
      RunIncognito(table, *qid, config, options);
  ASSERT_TRUE(unbatched.ok());
  EXPECT_EQ(unbatched->stats.table_scans, 7);

  options.batch_scans = true;
  PartialResult<IncognitoResult> batched =
      RunIncognito(table, *qid, config, options);
  ASSERT_TRUE(batched.ok());
  ExpectIdenticalModuloScans(*unbatched, *batched);
  EXPECT_EQ(batched->stats.table_scans, 6);
  EXPECT_EQ(batched->stats.batched_scan_nodes, 7);
  EXPECT_GT(batched->stats.batch_scan_seconds, 0.0);
  EXPECT_EQ(Strings(batched->anonymous_nodes).size(), 3u);
}

// ---------------------------------------------------------------------------
// Property: ComputeBatch == per-node Compute on random schemas
// ---------------------------------------------------------------------------

void ExpectSameFrequencySet(const FrequencySet& expected,
                            const FrequencySet& actual) {
  EXPECT_EQ(GroupsOf(expected), GroupsOf(actual));
  EXPECT_EQ(expected.TotalCount(), actual.TotalCount());
  EXPECT_EQ(expected.MinCount(), actual.MinCount());
  EXPECT_EQ(expected.MemoryBytes(), actual.MemoryBytes());
}

/// Builds the node list a level batch would hold — the full subset at
/// every distinct total height — plus singleton-attribute nodes, which
/// exercises per-node codecs of different widths inside one scan.
std::vector<SubsetNode> BatchNodesFor(const QuasiIdentifier& qid) {
  const size_t n = qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  std::vector<SubsetNode> nodes;
  nodes.emplace_back(dims, std::vector<int32_t>(n, 0));
  std::vector<int32_t> up(n);
  for (size_t i = 0; i < n; ++i) {
    up[i] = qid.hierarchy(i).height() >= 1 ? 1 : 0;
  }
  nodes.emplace_back(dims, up);
  for (size_t i = 0; i < n; ++i) {
    nodes.emplace_back(std::vector<int32_t>{static_cast<int32_t>(i)},
                       std::vector<int32_t>{0});
  }
  return nodes;
}

void SweepComputeBatch(const Table& table, const QuasiIdentifier& qid) {
  std::vector<SubsetNode> nodes = BatchNodesFor(qid);
  std::vector<FrequencySet> expected;
  for (const SubsetNode& node : nodes) {
    expected.push_back(FrequencySet::Compute(table, qid, node));
  }
  // Serial shared scan.
  std::vector<FrequencySet> serial =
      FrequencySet::ComputeBatch(table, qid, nodes);
  ASSERT_EQ(serial.size(), nodes.size());
  for (size_t j = 0; j < nodes.size(); ++j) {
    SCOPED_TRACE("serial node " + nodes[j].ToString());
    ExpectSameFrequencySet(expected[j], serial[j]);
  }
  // Pooled shared scan at every thread count.
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    std::vector<FrequencySet> pooled =
        FrequencySet::ComputeBatch(table, qid, nodes, &pool);
    ASSERT_EQ(pooled.size(), nodes.size());
    for (size_t j = 0; j < nodes.size(); ++j) {
      SCOPED_TRACE(StringPrintf("threads=%d node %s", threads,
                                nodes[j].ToString().c_str()));
      ExpectSameFrequencySet(expected[j], pooled[j]);
    }
  }
}

TEST(ComputeBatchPropertyTest, MatchesPerNodeComputeOnRandomSchemas) {
  for (uint64_t seed : {3u, 17u, 101u, 202u, 303u}) {
    Rng rng(seed);
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 2 + seed % 3;
    RandomDataset data = MakeRandomDataset(rng, opts);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SweepComputeBatch(data.table, data.qid);
  }
}

TEST(ComputeBatchPropertyTest, MatchesPerNodeComputeOnFixtures) {
  {
    AdultsOptions adults;
    adults.num_rows = 300;
    Result<SyntheticDataset> data = MakeAdultsDataset(adults);
    ASSERT_TRUE(data.ok());
    SweepComputeBatch(data->table, data->qid.Prefix(3));
  }
  SweepComputeBatch(MakeWideFallbackDataset(120).table,
                    MakeWideFallbackDataset(120).qid);
  SweepComputeBatch(MakeZeroRowDataset().table, MakeZeroRowDataset().qid);
  {
    RandomDataset data = MakeSingleGroupDataset(64);
    SweepComputeBatch(data.table, data.qid);
  }
}

TEST(ComputeBatchPropertyTest, EmptyNodeListYieldsEmptyResult) {
  Rng rng(3);
  RandomDataset data = MakeRandomDataset(rng);
  std::vector<FrequencySet> out =
      FrequencySet::ComputeBatch(data.table, data.qid, {});
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Governed: drain-to-zero and sound partials on a mid-batch memory trip
// ---------------------------------------------------------------------------

TEST(BatchScanGovernedTest, GenerousBudgetMatchesAndDrainsToZero) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  AnonymizationConfig config;
  config.k = 5;
  IncognitoOptions options;
  options.batch_scans = false;
  PartialResult<IncognitoResult> unbatched =
      RunIncognito(data->table, qid, config, options);
  ASSERT_TRUE(unbatched.ok());
  options.batch_scans = true;
  {
    // 1-thread governed: batch retention charges must return to zero.
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(int64_t{1} << 33);
    RunContext ctx;
    ctx.governor = &governor;
    PartialResult<IncognitoResult> governed =
        RunIncognito(data->table, qid, config, options, ctx);
    ASSERT_TRUE(governed.complete()) << governed.status().ToString();
    ExpectIdenticalModuloScans(*unbatched, governed.value());
    EXPECT_EQ(governor.memory().used(), 0);
    EXPECT_GT(governed->stats.governor_checks, 0);
  }
  {
    SCOPED_TRACE("threads=4");
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(int64_t{1} << 33);
    PartialResult<IncognitoResult> governed = RunIncognito(
        data->table, qid, config, options, RunContext::Governed(governor, 4));
    ASSERT_TRUE(governed.complete()) << governed.status().ToString();
    ExpectIdenticalModuloScans(*unbatched, governed.value());
    EXPECT_EQ(governor.memory().used(), 0);
  }
}

/// Sweeps tightening memory limits over a batched run: every trip —
/// including one that lands mid-batch, while a level's shared scan holds
/// sets for nodes not yet processed — must yield a sound PartialResult
/// (every completed iteration's survivor set equals the unconstrained
/// run's) with zero bytes left charged.
void SweepMemoryTrips(const Table& table, const QuasiIdentifier& qid,
                      const AnonymizationConfig& config,
                      const RunContext& (*make_ctx)(ExecutionGovernor&,
                                                    RunContext*)) {
  IncognitoOptions options;
  options.use_rollup = false;  // maximize scan-required (batched) nodes
  PartialResult<IncognitoResult> full =
      RunIncognito(table, qid, config, options);
  ASSERT_TRUE(full.ok());
  bool saw_partial = false;
  for (int64_t limit : {int64_t{512}, int64_t{4} << 10, int64_t{64} << 10,
                        int64_t{1} << 20, int64_t{16} << 20}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(limit);
    RunContext ctx;
    const RunContext& use = make_ctx(governor, &ctx);
    PartialResult<IncognitoResult> run =
        RunIncognito(table, qid, config, options, use);
    ASSERT_FALSE(run.hard_error()) << run.status().ToString();
    EXPECT_EQ(governor.memory().used(), 0);
    if (run.partial()) {
      saw_partial = true;
      EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
      EXPECT_GE(run->stats.memory_trips, 1);
      EXPECT_TRUE(run->anonymous_nodes.empty());
      ASSERT_EQ(run->per_iteration_survivors.size(),
                static_cast<size_t>(run->completed_iterations));
      ASSERT_LE(run->per_iteration_survivors.size(),
                full->per_iteration_survivors.size());
      for (size_t i = 0; i < run->per_iteration_survivors.size(); ++i) {
        EXPECT_EQ(Strings(run->per_iteration_survivors[i]),
                  Strings(full->per_iteration_survivors[i]));
      }
    } else {
      EXPECT_EQ(Strings(run->anonymous_nodes),
                Strings(full->anonymous_nodes));
    }
  }
  EXPECT_TRUE(saw_partial) << "no limit in the sweep tripped; weaken limits";
}

const RunContext& SerialCtx(ExecutionGovernor& governor, RunContext* ctx) {
  ctx->governor = &governor;
  return *ctx;
}

const RunContext& ParallelCtx(ExecutionGovernor& governor, RunContext* ctx) {
  *ctx = RunContext::Governed(governor, 4);
  return *ctx;
}

TEST(BatchScanGovernedTest, MidBatchMemoryTripYieldsSoundPartial) {
  Rng rng(33);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  {
    SCOPED_TRACE("serial");
    SweepMemoryTrips(data.table, data.qid, config, SerialCtx);
  }
  {
    SCOPED_TRACE("threads=4");
    SweepMemoryTrips(data.table, data.qid, config, ParallelCtx);
  }
}

TEST(BatchScanGovernedTest, ComputeBatchTinyBudgetYieldsEmptySetsNoLeak) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  std::vector<SubsetNode> nodes = BatchNodesFor(qid);
  WorkerPool pool(4);
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(16);  // smaller than a single group entry
  std::vector<FrequencySet> tripped =
      FrequencySet::ComputeBatch(data->table, qid, nodes, &pool, &governor);
  EXPECT_TRUE(governor.Tripped());
  ASSERT_EQ(tripped.size(), nodes.size());
  for (const FrequencySet& fs : tripped) EXPECT_EQ(fs.NumGroups(), 0u);
  EXPECT_EQ(governor.memory().used(), 0);
}

}  // namespace
}  // namespace incognito
