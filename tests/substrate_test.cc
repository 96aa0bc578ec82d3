// Tests for the group-by kernels (src/freq/substrate.h, DESIGN.md
// "Group-by substrates"): the radix and flat-map units, and every scan —
// serial, pooled at every thread count, batched, on both sides of the
// count rule and on keys wider than 64 bits — plus rollups and
// projections, against a naive std::map oracle with a serial scan's exact
// footprint. Compute's kHash reference scan must stay bit-identical to the
// kernel on packed keys, since the benches time the two against each
// other. And the governed scans' byte accounting (drain-to-zero,
// count-array and sort-buffer memory trips, cancels).

#include "freq/substrate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "core/run_context.h"
#include "core/worker_pool.h"
#include "data/adults.h"
#include "data/patients.h"
#include "freq/frequency_set.h"
#include "freq/key_codec.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::CodeGroups;
using testing_util::GroupsOf;
using testing_util::KeyBits;
using testing_util::PooledScan;

using testing_util::MakeRandomDataset;
using testing_util::MakeWideFallbackDataset;
using testing_util::RandomDataset;

constexpr SubstrateMode kModes[] = {SubstrateMode::kHash,
                                    SubstrateMode::kRadix,
                                    SubstrateMode::kAuto};

const char* ModeName(SubstrateMode mode) {
  switch (mode) {
    case SubstrateMode::kHash:
      return "hash";
    case SubstrateMode::kRadix:
      return "radix";
    case SubstrateMode::kAuto:
      return "auto";
  }
  return "?";
}

/// The bit-identity contract, in one assertion: same groups in the same
/// canonical order, same totals, and the same exact heap footprint.
void ExpectIdenticalSets(const FrequencySet& expected,
                         const FrequencySet& actual,
                         const std::string& context) {
  EXPECT_EQ(GroupsOf(expected), GroupsOf(actual)) << context;
  EXPECT_EQ(expected.TotalCount(), actual.TotalCount()) << context;
  EXPECT_EQ(expected.NumGroups(), actual.NumGroups()) << context;
  EXPECT_EQ(expected.MemoryBytes(), actual.MemoryBytes()) << context;
  EXPECT_EQ(expected.MinCount(), actual.MinCount()) << context;
}

void ExpectCanonicalOrder(const FrequencySet& fs, const std::string& context) {
  CodeGroups groups = GroupsOf(fs);
  for (size_t i = 1; i < groups.size(); ++i) {
    EXPECT_LT(groups[i - 1].first, groups[i].first)
        << context << " group " << i;
  }
}

// ---------------------------------------------------------------------------
// Radix kernels against naive oracles
// ---------------------------------------------------------------------------

TEST(RadixKernelTest, SortsExactlyLikeStdSort) {
  Rng rng(7);
  for (size_t total_bits : {0u, 1u, 7u, 8u, 9u, 16u, 24u, 33u, 64u}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
      std::vector<uint64_t> keys(n);
      const uint64_t mask =
          total_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << total_bits) - 1;
      for (auto& k : keys) k = rng.Next() & mask;
      std::vector<uint64_t> expected = keys;
      std::sort(expected.begin(), expected.end());
      std::vector<uint64_t> scratch;
      ASSERT_TRUE(RadixSortKeys(keys, scratch, total_bits));
      EXPECT_EQ(keys, expected) << "bits=" << total_bits << " n=" << n;
    }
  }
}

TEST(RadixKernelTest, CountedSortIsStable) {
  // Equal keys must keep their input order (the second pair member tags
  // the original position), or parallel merges would reorder chunk counts.
  Rng rng(11);
  std::vector<std::pair<uint64_t, int64_t>> items;
  for (int64_t i = 0; i < 2000; ++i) {
    items.emplace_back(rng.Next() % 17, i);
  }
  std::vector<std::pair<uint64_t, int64_t>> expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<uint64_t, int64_t>> scratch;
  ASSERT_TRUE(RadixSortCounted(items, scratch, 5));
  EXPECT_EQ(items, expected);
}

TEST(RadixKernelTest, TickAbortStopsTheSortAndReportsFalse) {
  Rng rng(13);
  std::vector<uint64_t> keys(4096);
  for (auto& k : keys) k = rng.Next();
  std::vector<uint64_t> sum_check = keys;
  std::sort(sum_check.begin(), sum_check.end());
  std::vector<uint64_t> scratch;
  int ticks = 0;
  // Deny the second scatter pass: the sort must abandon cleanly (returning
  // the permutation in `keys`, not half of it in scratch) and report false.
  EXPECT_FALSE(RadixSortKeys(keys, scratch, 64, [&] { return ++ticks < 2; }));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, sum_check);  // still a permutation of the input
  // A tick that always allows completes normally.
  EXPECT_TRUE(RadixSortKeys(keys, scratch, 64, [] { return true; }));
}

TEST(RadixKernelTest, ExtractGroupsMatchesMapOracle) {
  Rng rng(17);
  std::vector<uint64_t> keys(3000);
  std::map<uint64_t, int64_t> oracle;
  for (auto& k : keys) {
    k = rng.Next() % 100;
    ++oracle[k];
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<uint64_t, int64_t>> groups;
  EXPECT_EQ(ExtractGroups(keys, &groups), oracle.size());
  ASSERT_EQ(groups.size(), oracle.size());
  // Exact-capacity reserve: the footprint contract MemoryBytes leans on.
  EXPECT_EQ(groups.capacity(), groups.size());
  size_t i = 0;
  for (const auto& [key, count] : oracle) {
    EXPECT_EQ(groups[i].first, key);
    EXPECT_EQ(groups[i].second, count);
    ++i;
  }
}

TEST(RadixKernelTest, GatherMatchesPerRowPack) {
  Rng rng(23);
  const std::vector<size_t> domains = {5, 3, 17, 2};
  KeyCodec codec = KeyCodec::Create(domains);
  ASSERT_TRUE(codec.packed());
  const size_t n = domains.size();
  const size_t rows = 500;
  // Base columns plus identity maps — GatherPackedKeys folds maps[i][col]
  // exactly like the per-row scan does.
  std::vector<std::vector<int32_t>> cols(n);
  std::vector<std::vector<int32_t>> maps(n);
  for (size_t i = 0; i < n; ++i) {
    cols[i].resize(rows);
    for (auto& c : cols[i]) c = static_cast<int32_t>(rng.Uniform(domains[i]));
    maps[i].resize(domains[i]);
    for (size_t v = 0; v < domains[i]; ++v) {
      maps[i][v] = static_cast<int32_t>(rng.Uniform(domains[i]));
    }
  }
  std::vector<const int32_t*> col_ptrs(n);
  std::vector<const int32_t*> map_ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    col_ptrs[i] = cols[i].data();
    map_ptrs[i] = maps[i].data();
  }
  std::vector<uint64_t> keys;
  GatherPackedKeys(col_ptrs, map_ptrs, codec, 100, 400, &keys);
  ASSERT_EQ(keys.size(), 300u);
  std::vector<int32_t> codes(n);
  for (size_t r = 100; r < 400; ++r) {
    for (size_t i = 0; i < n; ++i) codes[i] = maps[i][cols[i][r]];
    EXPECT_EQ(keys[r - 100], codec.Pack(codes.data())) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// FlatCodeMap against a naive oracle
// ---------------------------------------------------------------------------

TEST(FlatCodeMapTest, MatchesMapOracleThroughGrowth) {
  Rng rng(29);
  const size_t width = 6;
  FlatCodeMap flat(width);  // default capacity: forces several growths
  std::map<std::vector<int32_t>, int64_t> oracle;
  std::vector<std::vector<int32_t>> insertion_order;
  for (int i = 0; i < 5000; ++i) {
    std::vector<int32_t> key(width);
    for (auto& c : key) c = static_cast<int32_t>(rng.Uniform(7));
    int64_t count = 1 + static_cast<int64_t>(rng.Uniform(3));
    if (oracle.find(key) == oracle.end()) insertion_order.push_back(key);
    oracle[key] += count;
    flat.Add(key.data(), count);
  }
  ASSERT_EQ(flat.size(), oracle.size());
  CodeGroups groups;
  flat.AppendTo(&groups);
  ASSERT_EQ(groups.size(), oracle.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    // AppendTo preserves insertion order; counts match the oracle.
    EXPECT_EQ(groups[i].first, insertion_order[i]) << i;
    EXPECT_EQ(groups[i].second, oracle.at(groups[i].first)) << i;
    // Exact-size key copies: capacity == size for the MemoryBytes contract.
    EXPECT_EQ(groups[i].first.capacity(), groups[i].first.size()) << i;
  }
  EXPECT_GT(flat.MemoryBytes(), 0u);
}

TEST(FlatCodeMapTest, MemoryBytesGrowsMonotonically) {
  FlatCodeMap flat(3);
  size_t prev = flat.MemoryBytes();
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    int32_t key[3] = {static_cast<int32_t>(rng.Uniform(50)),
                      static_cast<int32_t>(rng.Uniform(50)),
                      static_cast<int32_t>(rng.Uniform(50))};
    flat.Add(key, 1);
    size_t now = flat.MemoryBytes();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// ---------------------------------------------------------------------------
// Counted scans: both sides of the count rule against a std::map oracle
// ---------------------------------------------------------------------------

/// ComputeBatch's count rule for a packed scan: the node is counted in a
/// key-indexed array when its key space is at most twice the rows each
/// worker counts (rows / workers, every row when serial), and sorted
/// otherwise.
bool ScanCountsDensely(const QuasiIdentifier& qid, const SubsetNode& node,
                       size_t rows, size_t workers) {
  const size_t bits = KeyBits(qid, node);
  return bits < 64 && (uint64_t{1} << bits) <= 2 * (rows / workers);
}

/// The naive GROUP BY: each generalized code vector's row count, in
/// std::map (canonical) order.
CodeGroups MapOracle(const Table& table, const QuasiIdentifier& qid,
                     const SubsetNode& node) {
  std::map<std::vector<int32_t>, int64_t> groups;
  std::vector<int32_t> codes(node.size());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < node.size(); ++i) {
      const size_t d = static_cast<size_t>(node.dims[i]);
      const auto& map = qid.hierarchy(d).BaseToLevelMap(
          static_cast<size_t>(node.levels[i]));
      codes[i] = map[static_cast<size_t>(table.ColumnCodes(qid.column(d))[r])];
    }
    ++groups[codes];
  }
  return CodeGroups(groups.begin(), groups.end());
}

/// A set equals the oracle group for group, in order, and has the exact
/// footprint of a serial scan.
void ExpectMatchesOracle(const Table& table, const QuasiIdentifier& qid,
                         const FrequencySet& fs, const std::string& context) {
  EXPECT_EQ(GroupsOf(fs), MapOracle(table, qid, fs.node())) << context;
  EXPECT_EQ(fs.TotalCount(), static_cast<int64_t>(table.num_rows()))
      << context;
  EXPECT_EQ(fs.MemoryBytes(),
            FrequencySet::Compute(table, qid, fs.node()).MemoryBytes())
      << context;
}

TEST(CountedScanTest, CountsSeriallyAndPooledAtEveryThreadCount) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const SubsetNode node({0, 2}, {0, 0});  // Age x Race: 10 bits
  for (int threads : {1, 2, 4, 8}) {
    ASSERT_TRUE(ScanCountsDensely(data->qid, node, 5000,
                                  static_cast<size_t>(threads)));
    WorkerPool pool(threads);
    ExpectMatchesOracle(data->table, data->qid,
                        PooledScan(data->table, data->qid, node, pool),
                        "threads=" + std::to_string(threads));
  }
}

TEST(CountedScanTest, CountsAtTwiceTheRowsAndSortsOneRowBelow) {
  // Two attributes over 4-value base domains: a 4-bit key of 16 slots,
  // which counts once each worker has 8 rows.
  testing_util::RandomDatasetOptions opts;
  opts.num_attrs = 2;
  opts.min_domain = 4;
  opts.max_domain = 4;
  const SubsetNode node({0, 1}, {0, 0});
  for (size_t workers : {1u, 2u}) {
    for (size_t rows : {8 * workers, 8 * workers - 1}) {
      Rng rng(91);
      opts.num_rows = rows;
      RandomDataset ds = MakeRandomDataset(rng, opts);
      ASSERT_EQ(KeyBits(ds.qid, node), 4u);
      EXPECT_EQ(ScanCountsDensely(ds.qid, node, rows, workers),
                rows == 8 * workers);
      WorkerPool pool(static_cast<int>(workers));
      ExpectMatchesOracle(ds.table, ds.qid,
                          PooledScan(ds.table, ds.qid, node, pool),
                          "workers=" + std::to_string(workers) +
                              " rows=" + std::to_string(rows));
    }
  }
}

TEST(CountedScanTest, AllTopLevelKeyCountsIntoOneSlot) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const std::vector<int32_t> top = data->qid.MaxLevels();
  const SubsetNode node({0, 1, 2}, {top[0], top[1], top[2]});
  ASSERT_EQ(KeyBits(data->qid, node), 0u);
  for (int threads : {1, 4}) {
    ASSERT_TRUE(ScanCountsDensely(data->qid, node, 5000,
                                  static_cast<size_t>(threads)));
    WorkerPool pool(threads);
    FrequencySet fs = PooledScan(data->table, data->qid, node, pool);
    ASSERT_EQ(fs.NumGroups(), 1u);
    EXPECT_EQ(fs.MinCount(), 5000);
    ExpectMatchesOracle(data->table, data->qid, fs,
                        "threads=" + std::to_string(threads));
  }
}

TEST(CountedScanTest, EmptyTablesAndWorkersWithoutRowsSort) {
  // No row to count, or fewer rows than workers: even the one-slot key
  // sorts, and the result matches the oracle and the serial footprint.
  struct Case {
    size_t rows;
    int threads;
  };
  for (const Case& c : {Case{0, 1}, Case{0, 8}, Case{3, 8}}) {
    Rng rng(93);
    testing_util::RandomDatasetOptions opts;
    opts.num_rows = c.rows;
    RandomDataset ds = MakeRandomDataset(rng, opts);
    const std::vector<int32_t> top = ds.qid.MaxLevels();
    const SubsetNode base({0, 1, 2}, {0, 0, 0});
    const SubsetNode apex({0, 1, 2}, {top[0], top[1], top[2]});
    ASSERT_EQ(KeyBits(ds.qid, apex), 0u);
    WorkerPool pool(c.threads);
    for (const SubsetNode& node : {base, apex}) {
      const std::string context = node.ToString() +
                                  " rows=" + std::to_string(c.rows) +
                                  " threads=" + std::to_string(c.threads);
      ASSERT_FALSE(ScanCountsDensely(ds.qid, node, c.rows,
                                     static_cast<size_t>(c.threads)))
          << context;
      ExpectMatchesOracle(ds.table, ds.qid,
                          PooledScan(ds.table, ds.qid, node, pool),
                          context);
    }
  }
}

TEST(CountedScanTest, OneBatchMixesCountedAndSortedNodes) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const std::vector<SubsetNode> batch = {
      SubsetNode({0, 1, 2}, {0, 0, 0}), SubsetNode({0, 3, 4}, {0, 0, 0}),
      SubsetNode({0, 1, 2}, {4, 1, 1}), SubsetNode({0, 3, 4}, {1, 0, 0})};
  for (int threads : {1, 2, 4, 8}) {
    bool counts = false;
    bool sorts = false;
    for (const SubsetNode& node : batch) {
      const bool dense = ScanCountsDensely(data->qid, node, 5000,
                                           static_cast<size_t>(threads));
      counts = counts || dense;
      sorts = sorts || !dense;
    }
    ASSERT_TRUE(counts && sorts) << "threads=" << threads;
    WorkerPool pool(threads);
    std::vector<FrequencySet> sets =
        FrequencySet::ComputeBatch(data->table, data->qid, batch, &pool);
    ASSERT_EQ(sets.size(), batch.size());
    for (const FrequencySet& fs : sets) {
      ExpectMatchesOracle(data->table, data->qid, fs,
                          fs.node().ToString() +
                              " threads=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Compute / pooled ComputeBatch / RollupTo / ProjectTo, and the reference
// scan the benches time against the kernel
// ---------------------------------------------------------------------------

/// Nodes that exercise the interesting key shapes on a 3-attribute QID:
/// multi-dim base, partial generalizations, the apex (every hierarchy at
/// its root — all key fields zero bits wide), and single attributes.
std::vector<SubsetNode> PatientsNodes() {
  return {SubsetNode({0, 1, 2}, {0, 0, 0}), SubsetNode({1, 2}, {0, 0}),
          SubsetNode({1, 2}, {1, 1}),       SubsetNode({0, 1, 2}, {1, 1, 2}),
          SubsetNode({0}, {0}),             SubsetNode({2}, {2}),
          SubsetNode({1}, {1})};
}

TEST(SubstrateDifferentialTest, ComputeMatchesOnPatients) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  for (const SubsetNode& node : PatientsNodes()) {
    FrequencySet hash = FrequencySet::Compute(ds->table, ds->qid, node,
                                              SubstrateMode::kHash);
    for (SubstrateMode mode : {SubstrateMode::kRadix, SubstrateMode::kAuto}) {
      FrequencySet other = FrequencySet::Compute(ds->table, ds->qid, node,
                                                 mode);
      std::string context = node.ToString() + " " + ModeName(mode);
      ExpectIdenticalSets(hash, other, context);
      ExpectCanonicalOrder(other, context);
    }
  }
}

TEST(SubstrateDifferentialTest, ComputeMatchesOnAdultsAboveRadixThreshold) {
  // At 5000 rows these nodes fall on both sides of the count rule: keys of
  // up to 13 bits count, wider ones sort.
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const std::vector<SubsetNode> nodes = {
      SubsetNode({0, 1, 2}, {0, 0, 0}),  // Age x Gender x Race: 11 bits
      SubsetNode({0, 3, 4}, {1, 0, 0}),  // mixed levels
      SubsetNode({0}, {0}),              // Age alone: 7 bits
      SubsetNode({0, 1, 2, 3, 4, 5}, {0, 0, 0, 0, 0, 0}),
      SubsetNode({0, 1, 2}, {4, 1, 1})};  // apex-ish
  for (const SubsetNode& node : nodes) {
    FrequencySet hash = FrequencySet::Compute(data->table, data->qid, node,
                                              SubstrateMode::kHash);
    for (SubstrateMode mode : {SubstrateMode::kRadix, SubstrateMode::kAuto}) {
      FrequencySet other =
          FrequencySet::Compute(data->table, data->qid, node, mode);
      ExpectIdenticalSets(hash, other, node.ToString() + " " + ModeName(mode));
    }
  }
}

TEST(SubstrateDifferentialTest, ComputeMatchesMapOracleOnWideKeys) {
  // 72-bit keys run the flat arena map, in every mode.
  RandomDataset ds = MakeWideFallbackDataset(800);
  const size_t n = ds.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  const std::vector<SubsetNode> nodes = {
      SubsetNode(dims, std::vector<int32_t>(n, 0)),
      SubsetNode({0, 2, 4}, {0, 0, 0})};
  for (const SubsetNode& node : nodes) {
    for (SubstrateMode mode : kModes) {
      FrequencySet flat = FrequencySet::Compute(ds.table, ds.qid, node, mode);
      const std::string context = node.ToString() + " " + ModeName(mode);
      ExpectMatchesOracle(ds.table, ds.qid, flat, context);
      ExpectCanonicalOrder(flat, context);
    }
  }
}

TEST(SubstrateDifferentialTest, ComputeMatchesMapOracleOnRandomTables) {
  // Property check straight against a naive std::map oracle, with random
  // cardinality vectors — independent of the hash path entirely.
  Rng rng(1009);
  for (int trial = 0; trial < 12; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 2 + rng.Uniform(4);
    opts.num_rows = 50 + rng.Uniform(400);
    RandomDataset ds = MakeRandomDataset(rng, opts);
    const size_t n = ds.qid.size();
    std::vector<int32_t> dims(n);
    for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
    std::vector<int32_t> levels(n);
    for (size_t i = 0; i < n; ++i) {
      levels[i] = static_cast<int32_t>(
          rng.Uniform(ds.qid.hierarchy(i).height() + 1));
    }
    SubsetNode node(dims, levels);
    const CodeGroups oracle = MapOracle(ds.table, ds.qid, node);
    for (SubstrateMode mode : kModes) {
      FrequencySet fs = FrequencySet::Compute(ds.table, ds.qid, node, mode);
      EXPECT_EQ(GroupsOf(fs), oracle)
          << "trial " << trial << " " << ModeName(mode);
    }
  }
}

TEST(SubstrateDifferentialTest, PooledScanMatchesAtEveryThreadCount) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const std::vector<SubsetNode> nodes = {
      SubsetNode({0, 1, 2}, {0, 0, 0}), SubsetNode({0, 3, 4}, {1, 0, 0}),
      SubsetNode({0}, {0})};
  for (const SubsetNode& node : nodes) {
    for (int threads : {1, 2, 4, 8}) {
      WorkerPool pool(threads);
      ExpectMatchesOracle(data->table, data->qid,
                          PooledScan(data->table, data->qid, node, pool),
                          node.ToString() + " threads=" +
                              std::to_string(threads));
    }
  }
}

TEST(SubstrateDifferentialTest, PooledScanMatchesOnWideKeys) {
  RandomDataset ds = MakeWideFallbackDataset(600);
  const size_t n = ds.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  SubsetNode node(dims, std::vector<int32_t>(n, 0));
  for (int threads : {2, 4, 8}) {
    WorkerPool pool(threads);
    ExpectMatchesOracle(ds.table, ds.qid,
                        PooledScan(ds.table, ds.qid, node, pool),
                        "flat threads=" + std::to_string(threads));
  }
}

TEST(SubstrateDifferentialTest, ComputeBatchMatchesMapOracle) {
  // Same dims at different levels have different key spaces, so one batch
  // mixes counted and sorted nodes.
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const std::vector<SubsetNode> batch = {
      SubsetNode({0, 1, 2}, {0, 0, 0}), SubsetNode({0, 1, 2}, {1, 0, 0}),
      SubsetNode({0, 1, 2}, {2, 1, 0}), SubsetNode({0, 1, 2}, {4, 1, 1}),
      SubsetNode({0, 4, 5}, {0, 0, 0})};
  for (int threads : {0, 2, 4, 8}) {
    WorkerPool pool(threads > 0 ? threads : 1);
    std::vector<FrequencySet> sets = FrequencySet::ComputeBatch(
        data->table, data->qid, batch, threads > 0 ? &pool : nullptr);
    ASSERT_EQ(sets.size(), batch.size());
    for (size_t j = 0; j < batch.size(); ++j) {
      ExpectMatchesOracle(
          data->table, data->qid, sets[j],
          batch[j].ToString() + " batch threads=" + std::to_string(threads));
    }
  }
}

TEST(SubstrateDifferentialTest, RollupsAndProjectionsMatchMapOracle) {
  // RollupTo and ProjectTo share one regroup kernel, which takes no
  // substrate: every key shape it meets must equal the oracle, with the
  // footprint of a scan.
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const int32_t top = static_cast<int32_t>(data->qid.hierarchy(3).height());
  ASSERT_EQ(data->qid.hierarchy(3).DomainSize(static_cast<size_t>(top)), 1u);
  // Seven 12-bit attributes: an 84-bit vector-key source.
  RandomDataset wide = MakeWideFallbackDataset(500, 7);
  const SubsetNode wide_bottom = SubsetNode::Full(std::vector<int32_t>(7, 0));
  struct Case {
    const Table* table;
    const QuasiIdentifier* qid;
    SubsetNode source;
    SubsetNode target;
    bool project;
  };
  const SubsetNode adults_base({0, 1, 2, 3}, {0, 0, 0, 0});
  const Case cases[] = {
      // Packed source, packed target.
      {&data->table, &data->qid, adults_base, SubsetNode({0, 1}, {0, 0}),
       true},
      {&data->table, &data->qid, adults_base, SubsetNode({0, 2, 3}, {0, 0, 0}),
       true},
      {&data->table, &data->qid, adults_base, SubsetNode({3}, {0}), true},
      // Drops a zero-bit field.
      {&data->table, &data->qid, SubsetNode({0, 1, 2, 3}, {0, 0, 0, top}),
       SubsetNode({0, 1, 2}, {0, 0, 0}), true},
      // Vector source onto vector targets (72 bits), then onto packed
      // targets (60 bits).
      {&wide.table, &wide.qid, wide_bottom,
       SubsetNode({0, 1, 2, 3, 4, 5}, std::vector<int32_t>(6, 0)), true},
      {&wide.table, &wide.qid, wide_bottom,
       SubsetNode::Full({1, 0, 0, 0, 0, 0, 0}), false},
      {&wide.table, &wide.qid, wide_bottom,
       SubsetNode({0, 1, 2, 3, 4}, std::vector<int32_t>(5, 0)), true},
      {&wide.table, &wide.qid, wide_bottom,
       SubsetNode::Full({1, 1, 0, 0, 0, 0, 0}), false},
  };
  for (const Case& c : cases) {
    const std::string context =
        c.source.ToString() + (c.project ? " projected to " : " rolled to ") +
        c.target.ToString() +
        " bits=" + std::to_string(KeyBits(*c.qid, c.target));
    FrequencySet source = FrequencySet::Compute(*c.table, *c.qid, c.source);
    FrequencySet result = c.project ? source.ProjectTo(c.target, *c.qid)
                                    : source.RollupTo(c.target, *c.qid);
    ExpectMatchesOracle(*c.table, *c.qid, result, context);
  }
}

// ---------------------------------------------------------------------------
// The checker and the governed search
// ---------------------------------------------------------------------------

std::vector<std::string> Strings(const std::vector<SubsetNode>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const SubsetNode& n : nodes) out.push_back(n.ToString());
  return out;
}

/// Survivors, per-iteration sets, and every deterministic counter agree.
/// (Shard high-water marks legitimately differ and are excluded.)
void ExpectSameSearch(const IncognitoResult& expected,
                      const IncognitoResult& actual,
                      const std::string& context) {
  EXPECT_EQ(Strings(expected.anonymous_nodes), Strings(actual.anonymous_nodes))
      << context;
  ASSERT_EQ(expected.per_iteration_survivors.size(),
            actual.per_iteration_survivors.size())
      << context;
  for (size_t i = 0; i < expected.per_iteration_survivors.size(); ++i) {
    EXPECT_EQ(Strings(expected.per_iteration_survivors[i]),
              Strings(actual.per_iteration_survivors[i]))
        << context << " iteration " << i + 1;
  }
  EXPECT_EQ(expected.completed_iterations, actual.completed_iterations)
      << context;
  EXPECT_EQ(expected.stats.nodes_checked, actual.stats.nodes_checked)
      << context;
  EXPECT_EQ(expected.stats.nodes_marked, actual.stats.nodes_marked) << context;
  EXPECT_EQ(expected.stats.table_scans, actual.stats.table_scans) << context;
  EXPECT_EQ(expected.stats.rollups, actual.stats.rollups) << context;
  EXPECT_EQ(expected.stats.freq_groups_built, actual.stats.freq_groups_built)
      << context;
  EXPECT_EQ(expected.stats.candidate_nodes, actual.stats.candidate_nodes)
      << context;
  EXPECT_EQ(expected.stats.batched_scan_nodes, actual.stats.batched_scan_nodes)
      << context;
}

TEST(SubstrateSearchTest, CheckerVerdictMatchesMapOracle) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  SubsetNode node = SubsetNode::Full({2, 1, 1});
  QuasiIdentifier qid = data->qid.Prefix(3);
  const CodeGroups oracle = MapOracle(data->table, qid, node);
  for (int64_t k : {10, 200}) {
    AnonymizationConfig config;
    config.k = k;
    const bool expected =
        std::all_of(oracle.begin(), oracle.end(),
                    [k](const auto& group) { return group.second >= k; });
    for (int threads : {1, 4}) {
      AlgorithmStats stats;
      EXPECT_EQ(IsKAnonymous(data->table, qid, node, config, &stats, threads),
                expected)
          << "k=" << k << " threads=" << threads;
      EXPECT_EQ(stats.freq_groups_built, static_cast<int64_t>(oracle.size()));
      Result<bool> got = IsKAnonymous(data->table, qid, node, config,
                                      RunContext::WithThreads(threads));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), expected) << "k=" << k << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Governed scans: exact byte accounting
// ---------------------------------------------------------------------------

TEST(SubstrateGovernedTest, ParallelScanDrainsToZero) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  // One node counts at 1,250 rows a worker, the other sorts.
  const SubsetNode counted({0, 2}, {0, 0});
  const SubsetNode sorted({0, 3, 4}, {0, 0, 0});
  ASSERT_TRUE(ScanCountsDensely(data->qid, counted, 5000, 4));
  ASSERT_FALSE(ScanCountsDensely(data->qid, sorted, 5000, 4));
  for (const SubsetNode& node : {counted, sorted}) {
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(int64_t{1} << 30);
    WorkerPool pool(4);
    FrequencySet governed =
        PooledScan(data->table, data->qid, node, pool, &governor);
    ExpectMatchesOracle(data->table, data->qid, governed, node.ToString());
    EXPECT_TRUE(governor.Check().ok()) << node.ToString();
    // Every transient byte — count arrays and sort buffers included —
    // returned to the budget; only the drained high-water marks remain.
    EXPECT_EQ(governor.memory().used(), 0) << node.ToString();
    EXPECT_GT(governor.memory().peak(), 0) << node.ToString();
  }
}

TEST(SubstrateGovernedTest, RadixBufferChargeTripsTinyBudgets) {
  // The budget is smaller than one worker's gather+scratch buffers, so the
  // radix scan must trip at the up-front buffer charge — before the sort —
  // and unwind with nothing leaked.
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  SubsetNode node({0, 3, 4}, {0, 0, 0});  // 14 bits against 1250-row chunks
  ASSERT_FALSE(ScanCountsDensely(data->qid, node, 5000, 4));
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(1024);  // << 2 * chunk_rows * 8 bytes
  WorkerPool pool(4);
  FrequencySet tripped =
      PooledScan(data->table, data->qid, node, pool, &governor);
  EXPECT_EQ(tripped.NumGroups(), 0u);
  EXPECT_FALSE(governor.SharedTrip().ok());
  EXPECT_EQ(governor.SharedTrip().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(SubstrateGovernedTest, MidSortCancelAbandonsTheSortCleanly) {
  // Cancel before the scan starts: the radix workers see the trip at their
  // sort tick (or the initial Check), abandon, and the scan returns empty
  // with the budget balanced — the mid-sort trip soundness check.
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  SubsetNode node({0, 3, 4}, {0, 0, 0});
  ASSERT_FALSE(ScanCountsDensely(data->qid, node, 5000, 4));
  CancelToken token;
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  token.Cancel();
  WorkerPool pool(4);
  FrequencySet tripped =
      PooledScan(data->table, data->qid, node, pool, &governor);
  EXPECT_EQ(tripped.NumGroups(), 0u);
  EXPECT_EQ(governor.SharedTrip().code(), StatusCode::kCancelled);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(SubstrateGovernedTest, CountArrayChargeTripsBudgetsBelowOneArray) {
  // Each worker charges its count array before allocating it; a budget
  // below one array trips there and drains with nothing leaked.
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  SubsetNode node({0, 2}, {0, 0});
  ASSERT_TRUE(ScanCountsDensely(data->qid, node, 5000, 4));
  const int64_t array_bytes = static_cast<int64_t>(
      (size_t{1} << KeyBits(data->qid, node)) * sizeof(int64_t));
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(array_bytes / 2);
  WorkerPool pool(4);
  FrequencySet tripped =
      PooledScan(data->table, data->qid, node, pool, &governor);
  EXPECT_EQ(tripped.NumGroups(), 0u);
  EXPECT_EQ(governor.SharedTrip().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(SubstrateGovernedTest, CancelBeforeACountedScanReturnsEmptyAndBalanced) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const std::vector<SubsetNode> batch = {SubsetNode({0, 2}, {0, 0}),
                                         SubsetNode({0, 1, 2}, {4, 1, 1})};
  for (const SubsetNode& node : batch) {
    ASSERT_TRUE(ScanCountsDensely(data->qid, node, 5000, 4));
  }
  CancelToken token;
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 30);
  governor.SetCancelToken(&token);
  token.Cancel();
  WorkerPool pool(4);
  std::vector<FrequencySet> sets = FrequencySet::ComputeBatch(
      data->table, data->qid, batch, &pool, &governor);
  ASSERT_EQ(sets.size(), batch.size());
  for (const FrequencySet& fs : sets) EXPECT_EQ(fs.NumGroups(), 0u);
  EXPECT_EQ(governor.SharedTrip().code(), StatusCode::kCancelled);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(SubstrateGovernedTest, GovernedBatchDrainsToZero) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  // Counted and sorted nodes side by side (the last one sorts).
  const std::vector<SubsetNode> batch = {SubsetNode({0, 1, 2}, {0, 0, 0}),
                                         SubsetNode({0, 1, 2}, {1, 0, 0}),
                                         SubsetNode({0, 1, 2}, {4, 1, 1}),
                                         SubsetNode({0, 3, 4}, {0, 0, 0})};
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 30);
  WorkerPool pool(4);
  std::vector<FrequencySet> sets = FrequencySet::ComputeBatch(
      data->table, data->qid, batch, &pool, &governor);
  ASSERT_EQ(sets.size(), batch.size());
  for (const FrequencySet& fs : sets) {
    ExpectMatchesOracle(data->table, data->qid, fs, fs.node().ToString());
  }
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(SubstrateGovernedTest, GovernedSearchMatchesUngoverned) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  AnonymizationConfig config;
  config.k = 25;
  IncognitoOptions options;
  PartialResult<IncognitoResult> baseline =
      RunIncognito(data->table, qid, config, options);
  ASSERT_TRUE(baseline.ok());
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<IncognitoResult> governed =
      RunIncognito(data->table, qid, config, options,
                   RunContext::Governed(governor, 4));
  ASSERT_TRUE(governed.ok());
  ExpectSameSearch(*baseline, *governed, "governed");
  EXPECT_EQ(governor.memory().used(), 0);
}

}  // namespace
}  // namespace incognito
