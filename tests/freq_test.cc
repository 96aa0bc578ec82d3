#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/worker_pool.h"
#include "data/patients.h"
#include "freq/frequency_set.h"
#include "freq/key_codec.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::CodeGroups;
using testing_util::GroupsOf;
using testing_util::KeyBits;
using testing_util::PooledScan;

/// Regression for the nondeterministic hash-order bug: groups must visit
/// in strictly ascending lexicographic code order, on both storage paths.
void ExpectCanonicalOrder(const FrequencySet& fs) {
  CodeGroups groups = GroupsOf(fs);
  for (size_t i = 1; i < groups.size(); ++i) {
    EXPECT_LT(groups[i - 1].first, groups[i].first) << "group " << i;
  }
}

// ---------------------------------------------------------------------------
// KeyCodec
// ---------------------------------------------------------------------------

TEST(KeyCodecTest, BitWidths) {
  KeyCodec codec = KeyCodec::Create({4, 2, 1, 5});
  EXPECT_TRUE(codec.packed());
  EXPECT_EQ(codec.num_dims(), 4u);
  // ceil(log2): 4→2, 2→1, 1→0, 5→3.
  EXPECT_EQ(codec.total_bits(), 6u);
}

TEST(KeyCodecTest, PackUnpackRoundTrip) {
  KeyCodec codec = KeyCodec::Create({4, 2, 1, 5});
  int32_t codes[4] = {3, 1, 0, 4};
  uint64_t key = codec.Pack(codes);
  int32_t out[4];
  codec.Unpack(key, out);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], 0);
  EXPECT_EQ(out[3], 4);
}

TEST(KeyCodecTest, PackIsInjective) {
  KeyCodec codec = KeyCodec::Create({3, 3});
  std::set<uint64_t> keys;
  for (int32_t a = 0; a < 3; ++a) {
    for (int32_t b = 0; b < 3; ++b) {
      int32_t codes[2] = {a, b};
      EXPECT_TRUE(keys.insert(codec.Pack(codes)).second);
    }
  }
}

TEST(KeyCodecTest, LandsEndSchemaFitsIn64Bits) {
  // The zero-generalization Lands End key: 31953·320·2·1509·346·1·1412·2.
  KeyCodec codec =
      KeyCodec::Create({31953, 320, 2, 1509, 346, 1, 1412, 2});
  EXPECT_TRUE(codec.packed());
  EXPECT_LE(codec.total_bits(), 64u);
}

TEST(KeyCodecTest, OverflowFallsBackToUnpacked) {
  KeyCodec codec = KeyCodec::Create(std::vector<size_t>(10, 1u << 20));
  EXPECT_FALSE(codec.packed());
}

TEST(KeyCodecTest, RoundTripAtCardinalityBoundaries) {
  // Domains straddling power-of-two boundaries: the bit width changes at
  // exactly these cardinalities, so an off-by-one in the shift math shows
  // up here first. Total bits: 0+1+2+2+3+3+4+4+5 = 24.
  const std::vector<size_t> domains = {1, 2, 3, 4, 5, 8, 9, 16, 17};
  KeyCodec codec = KeyCodec::Create(domains);
  ASSERT_TRUE(codec.packed());
  const size_t n = domains.size();
  std::vector<int32_t> codes(n, 0);
  std::vector<int32_t> out(n);
  // All-zero, all-max, and each dimension individually at its max code.
  auto round_trip = [&]() {
    uint64_t key = codec.Pack(codes.data());
    codec.Unpack(key, out.data());
    EXPECT_EQ(out, codes);
  };
  round_trip();
  for (size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<int32_t>(domains[i]) - 1;
  }
  round_trip();
  for (size_t i = 0; i < n; ++i) {
    std::fill(codes.begin(), codes.end(), 0);
    codes[i] = static_cast<int32_t>(domains[i]) - 1;
    round_trip();
  }
}

TEST(KeyCodecTest, PackPreservesLexicographicOrder) {
  // The canonical group order leans on this: sorting packed keys must be
  // the same as sorting the code vectors lexicographically.
  const std::vector<size_t> domains = {3, 5, 2, 9};
  KeyCodec codec = KeyCodec::Create(domains);
  ASSERT_TRUE(codec.packed());
  Rng rng(99);
  std::vector<std::vector<int32_t>> vectors;
  for (int i = 0; i < 200; ++i) {
    std::vector<int32_t> codes(domains.size());
    for (size_t d = 0; d < domains.size(); ++d) {
      codes[d] = static_cast<int32_t>(rng.Uniform(domains[d]));
    }
    vectors.push_back(std::move(codes));
  }
  std::vector<std::vector<int32_t>> by_vector = vectors;
  std::sort(by_vector.begin(), by_vector.end());
  std::stable_sort(vectors.begin(), vectors.end(),
                   [&](const std::vector<int32_t>& a,
                       const std::vector<int32_t>& b) {
                     return codec.Pack(a.data()) < codec.Pack(b.data());
                   });
  EXPECT_EQ(vectors, by_vector);
}

TEST(KeyCodecTest, SingleValueDimensionsContributeZeroBits) {
  // A dimension whose level has one value (e.g. a hierarchy root) packs a
  // zero-bit field: only code 0 is representable, and the surrounding
  // fields must be unaffected by its presence.
  KeyCodec codec = KeyCodec::Create({4, 1, 5});
  ASSERT_TRUE(codec.packed());
  EXPECT_EQ(codec.bits(0), 2);
  EXPECT_EQ(codec.bits(1), 0);
  EXPECT_EQ(codec.bits(2), 3);
  EXPECT_EQ(codec.total_bits(), 5u);
  EXPECT_EQ(codec.cardinalities(), (std::vector<size_t>{4, 1, 5}));
  std::vector<int32_t> codes = {3, 0, 4};
  std::vector<int32_t> out(3);
  codec.Unpack(codec.Pack(codes.data()), out.data());
  EXPECT_EQ(out, codes);
  // The all-roots key (every dimension single-valued) is zero bits total.
  KeyCodec apex = KeyCodec::Create({1, 1, 1});
  ASSERT_TRUE(apex.packed());
  EXPECT_EQ(apex.total_bits(), 0u);
  std::vector<int32_t> zeros = {0, 0, 0};
  EXPECT_EQ(apex.Pack(zeros.data()), 0u);
}

TEST(KeyCodecTest, ZeroCardinalityIsTreatedAsSingleValue) {
  // An empty domain cannot occur in a well-formed hierarchy, but Create
  // guards it anyway: cardinality 0 packs like cardinality 1 instead of
  // producing a degenerate codec.
  KeyCodec codec = KeyCodec::Create({3, 0, 2});
  ASSERT_TRUE(codec.packed());
  EXPECT_EQ(codec.bits(1), 0);
  EXPECT_EQ(codec.cardinalities()[1], 1u);
}

#ifndef NDEBUG
TEST(KeyCodecDeathTest, PackAssertsOnOutOfRangeCodes) {
  // Debug builds catch codes outside the dimension's domain — an
  // out-of-range code would silently corrupt the fields packed before it.
  KeyCodec codec = KeyCodec::Create({4, 2, 5});
  int32_t too_big[] = {0, 2, 0};  // dimension 1 holds codes 0..1
  EXPECT_DEATH(codec.Pack(too_big), "domain");
  int32_t negative[] = {-1, 0, 0};
  EXPECT_DEATH(codec.Pack(negative), "domain");
  // A single-value dimension's field is zero bits wide: only code 0 fits.
  KeyCodec single = KeyCodec::Create({4, 1, 5});
  int32_t nonzero_single[] = {0, 1, 0};
  EXPECT_DEATH(single.Pack(nonzero_single), "domain");
}
#endif  // !NDEBUG

// ---------------------------------------------------------------------------
// FrequencySet on the Patients running example (paper §1.1, §3).
// ---------------------------------------------------------------------------

class PatientsFreqTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<PatientsDataset> ds = MakePatientsDataset();
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    table_ = std::move(ds->table);
    qid_ = std::move(ds->qid);
  }

  /// Collects groups as label-string → count for readable assertions.
  std::map<std::string, int64_t> Groups(const FrequencySet& fs) {
    std::map<std::string, int64_t> out;
    const SubsetNode& node = fs.node();
    fs.ForEachGroup([&](const int32_t* codes, int64_t count) {
      std::string key;
      for (size_t i = 0; i < node.size(); ++i) {
        if (i > 0) key += "|";
        key += qid_.hierarchy(static_cast<size_t>(node.dims[i]))
                   .LevelValue(static_cast<size_t>(node.levels[i]), codes[i])
                   .ToString();
      }
      out[key] = count;
    });
    return out;
  }

  Table table_;
  QuasiIdentifier qid_;
};

TEST_F(PatientsFreqTest, SexZipcodeAtBaseLevels) {
  // The paper's §1.1 example: SELECT COUNT(*) GROUP BY Sex, Zipcode shows
  // Patients is NOT 2-anonymous w.r.t. <Sex, Zipcode>.
  FrequencySet fs =
      FrequencySet::Compute(table_, qid_, SubsetNode({1, 2}, {0, 0}));
  EXPECT_EQ(fs.TotalCount(), 6);
  std::map<std::string, int64_t> groups = Groups(fs);
  EXPECT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups["Male|53715"], 1);
  EXPECT_EQ(groups["Female|53715"], 1);
  EXPECT_EQ(groups["Male|53703"], 2);
  EXPECT_EQ(groups["Female|53706"], 2);
  EXPECT_EQ(fs.MinCount(), 1);
  EXPECT_FALSE(fs.IsKAnonymous(2));
  EXPECT_TRUE(fs.IsKAnonymous(1));
}

TEST_F(PatientsFreqTest, RollupMatchesExample31) {
  // Example 3.1: rolling the <S0,Z0> frequency set up to <S1,Z0> yields
  // counts 2,2,2 — 2-anonymous.
  FrequencySet base =
      FrequencySet::Compute(table_, qid_, SubsetNode({1, 2}, {0, 0}));
  FrequencySet rolled = base.RollupTo(SubsetNode({1, 2}, {1, 0}), qid_);
  std::map<std::string, int64_t> groups = Groups(rolled);
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups["Person|53715"], 2);
  EXPECT_EQ(groups["Person|53703"], 2);
  EXPECT_EQ(groups["Person|53706"], 2);
  EXPECT_TRUE(rolled.IsKAnonymous(2));
  EXPECT_EQ(rolled.TotalCount(), 6);
}

TEST_F(PatientsFreqTest, RollupS0Z1StillFails) {
  // Example 3.1 continued: <S0,Z1> is not 2-anonymous...
  FrequencySet base =
      FrequencySet::Compute(table_, qid_, SubsetNode({1, 2}, {0, 0}));
  FrequencySet s0z1 = base.RollupTo(SubsetNode({1, 2}, {0, 1}), qid_);
  EXPECT_FALSE(s0z1.IsKAnonymous(2));
  // ...but <S0,Z2> is.
  FrequencySet s0z2 = s0z1.RollupTo(SubsetNode({1, 2}, {0, 2}), qid_);
  EXPECT_TRUE(s0z2.IsKAnonymous(2));
  std::map<std::string, int64_t> groups = Groups(s0z2);
  EXPECT_EQ(groups["Male|537**"], 3);
  EXPECT_EQ(groups["Female|537**"], 3);
}

TEST_F(PatientsFreqTest, RollupEqualsDirectComputation) {
  // Rollup Property (paper §3): rollup(freq(P)) == freq(Q) for every
  // generalization Q of P over the same attributes.
  SubsetNode base_node({0, 1, 2}, {0, 0, 0});
  FrequencySet base = FrequencySet::Compute(table_, qid_, base_node);
  for (int32_t b = 0; b <= 1; ++b) {
    for (int32_t s = 0; s <= 1; ++s) {
      for (int32_t z = 0; z <= 2; ++z) {
        SubsetNode target({0, 1, 2}, {b, s, z});
        FrequencySet rolled = base.RollupTo(target, qid_);
        FrequencySet direct = FrequencySet::Compute(table_, qid_, target);
        EXPECT_EQ(Groups(rolled), Groups(direct))
            << "mismatch at " << target.ToString(&qid_);
      }
    }
  }
}

TEST_F(PatientsFreqTest, ProjectToSubset) {
  // Projecting <B0,S0,Z0> away from Birthdate gives freq w.r.t. <S0,Z0>.
  FrequencySet full =
      FrequencySet::Compute(table_, qid_, SubsetNode({0, 1, 2}, {0, 0, 0}));
  FrequencySet projected = full.ProjectTo(SubsetNode({1, 2}, {0, 0}), qid_);
  FrequencySet direct =
      FrequencySet::Compute(table_, qid_, SubsetNode({1, 2}, {0, 0}));
  EXPECT_EQ(Groups(projected), Groups(direct));
  EXPECT_EQ(projected.TotalCount(), 6);
}

TEST_F(PatientsFreqTest, ProjectToSingleAttribute) {
  FrequencySet full =
      FrequencySet::Compute(table_, qid_, SubsetNode({0, 1, 2}, {0, 0, 0}));
  FrequencySet sex = full.ProjectTo(SubsetNode({1}, {0}), qid_);
  std::map<std::string, int64_t> groups = Groups(sex);
  EXPECT_EQ(groups["Male"], 3);
  EXPECT_EQ(groups["Female"], 3);
}

TEST_F(PatientsFreqTest, SuppressionThreshold) {
  // <S0,Z0> has two singleton groups (2 tuples below k=2); with a
  // suppression budget of 2 the generalization becomes acceptable.
  FrequencySet fs =
      FrequencySet::Compute(table_, qid_, SubsetNode({1, 2}, {0, 0}));
  EXPECT_EQ(fs.TuplesBelowK(2), 2);
  EXPECT_FALSE(fs.IsKAnonymous(2, /*max_suppressed=*/1));
  EXPECT_TRUE(fs.IsKAnonymous(2, /*max_suppressed=*/2));
  EXPECT_EQ(fs.TuplesBelowK(3), 6);  // every group is below 3
  EXPECT_EQ(fs.TuplesBelowK(1), 0);
}

TEST_F(PatientsFreqTest, MemoryBytesNonZero) {
  FrequencySet fs =
      FrequencySet::Compute(table_, qid_, SubsetNode({1, 2}, {0, 0}));
  EXPECT_GT(fs.MemoryBytes(), 0u);
}

TEST_F(PatientsFreqTest, GroupsVisitInCanonicalOrder) {
  // Compute, RollupTo, and ProjectTo all sort after aggregating; the
  // visiting order must not depend on hash-map iteration order.
  FrequencySet base =
      FrequencySet::Compute(table_, qid_, SubsetNode({0, 1, 2}, {0, 0, 0}));
  ExpectCanonicalOrder(base);
  ExpectCanonicalOrder(base.RollupTo(SubsetNode({0, 1, 2}, {0, 1, 1}), qid_));
  ExpectCanonicalOrder(base.ProjectTo(SubsetNode({0, 2}, {0, 0}), qid_));
  ExpectCanonicalOrder(
      FrequencySet::Compute(table_, qid_, SubsetNode({1, 2}, {0, 1})));
}

TEST_F(PatientsFreqTest, SingleGroupSaturation) {
  // Sex generalized to its root collapses everything into one group: the
  // k-anonymity accounting must saturate cleanly at count == TotalCount.
  FrequencySet fs = FrequencySet::Compute(table_, qid_, SubsetNode({1}, {1}));
  EXPECT_EQ(fs.NumGroups(), 1u);
  EXPECT_EQ(fs.TotalCount(), 6);
  EXPECT_EQ(fs.MinCount(), 6);
  EXPECT_TRUE(fs.IsKAnonymous(6));
  EXPECT_FALSE(fs.IsKAnonymous(7));
  EXPECT_EQ(fs.TuplesBelowK(6), 0);
  EXPECT_EQ(fs.TuplesBelowK(7), 6);
}

TEST_F(PatientsFreqTest, MemoryBytesMonotoneUnderRollup) {
  // Rollup can only merge groups, so the footprint never grows along a
  // generalization chain.
  FrequencySet fs =
      FrequencySet::Compute(table_, qid_, SubsetNode({1, 2}, {0, 0}));
  size_t prev = fs.MemoryBytes();
  for (int32_t z = 1; z <= 2; ++z) {
    fs = fs.RollupTo(SubsetNode({1, 2}, {0, z}), qid_);
    EXPECT_LE(fs.MemoryBytes(), prev) << "z=" << z;
    prev = fs.MemoryBytes();
  }
  FrequencySet top = fs.RollupTo(SubsetNode({1, 2}, {1, 2}), qid_);
  EXPECT_LE(top.MemoryBytes(), prev);
  EXPECT_EQ(top.NumGroups(), 1u);
}

TEST_F(PatientsFreqTest, PooledScanMatchesSerial) {
  // The intra-node differential on the running example: identical groups,
  // identical order, identical footprint at every thread count.
  const std::vector<SubsetNode> nodes = {
      SubsetNode({0, 1, 2}, {0, 0, 0}), SubsetNode({1, 2}, {0, 0}),
      SubsetNode({1, 2}, {1, 1}),       SubsetNode({0}, {0}),
      SubsetNode({2}, {2})};
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    for (const SubsetNode& node : nodes) {
      FrequencySet serial = FrequencySet::Compute(table_, qid_, node);
      FrequencySet parallel = PooledScan(table_, qid_, node, pool);
      EXPECT_EQ(GroupsOf(serial), GroupsOf(parallel)) << threads;
      EXPECT_EQ(serial.TotalCount(), parallel.TotalCount());
      EXPECT_EQ(serial.MemoryBytes(), parallel.MemoryBytes()) << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Property: rollup and projection on random data, including the unpacked
// key fallback.
// ---------------------------------------------------------------------------

TEST(FrequencySetPropertyTest, RollupCommutesOnRandomData) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng);
    const size_t n = ds.qid.size();
    std::vector<int32_t> dims(n);
    for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
    SubsetNode bottom(dims, std::vector<int32_t>(n, 0));
    FrequencySet base = FrequencySet::Compute(ds.table, ds.qid, bottom);
    // Random target levels.
    std::vector<int32_t> levels(n);
    for (size_t i = 0; i < n; ++i) {
      levels[i] = static_cast<int32_t>(
          rng.Uniform(ds.qid.hierarchy(i).height() + 1));
    }
    SubsetNode target(dims, levels);
    FrequencySet rolled = base.RollupTo(target, ds.qid);
    FrequencySet direct = FrequencySet::Compute(ds.table, ds.qid, target);
    EXPECT_EQ(GroupsOf(rolled), GroupsOf(direct));
    EXPECT_EQ(rolled.MemoryBytes(), direct.MemoryBytes());
    EXPECT_EQ(rolled.NumGroups(), direct.NumGroups());
    EXPECT_EQ(rolled.TotalCount(), direct.TotalCount());
    EXPECT_EQ(rolled.MinCount(), direct.MinCount());
    for (int64_t k = 1; k <= 5; ++k) {
      EXPECT_EQ(rolled.TuplesBelowK(k), direct.TuplesBelowK(k));
    }
  }
}

TEST(FrequencySetPropertyTest, UnpackedFallbackMatchesPackedSemantics) {
  // Six attributes with 4096-value domains need 72 bits — beyond the
  // packed-key fast path — so this exercises the vector-key fallback for
  // Compute, RollupTo, ProjectTo, and the k-anonymity accounting.
  testing_util::RandomDataset ds = testing_util::MakeWideFallbackDataset(500);
  const Table& table = ds.table;
  const QuasiIdentifier& qid = ds.qid;
  const size_t kAttrs = qid.size();

  std::vector<int32_t> dims(kAttrs);
  for (size_t i = 0; i < kAttrs; ++i) dims[i] = static_cast<int32_t>(i);
  SubsetNode bottom(dims, std::vector<int32_t>(kAttrs, 0));
  FrequencySet fs = FrequencySet::Compute(table, qid, bottom);
  EXPECT_EQ(fs.TotalCount(), 500);
  EXPECT_LE(fs.NumGroups(), 729u);  // 3^6 possible combinations
  EXPECT_GT(fs.NumGroups(), 1u);

  // Rollup to the top collapses everything into one group of 500.
  SubsetNode top(dims, std::vector<int32_t>(kAttrs, 1));
  FrequencySet rolled = fs.RollupTo(top, qid);
  EXPECT_EQ(rolled.NumGroups(), 1u);
  EXPECT_EQ(rolled.MinCount(), 500);
  EXPECT_TRUE(rolled.IsKAnonymous(500));

  // Projection away to three attributes matches a direct computation.
  SubsetNode half({0, 2, 4}, {0, 0, 0});
  FrequencySet projected = fs.ProjectTo(half, qid);
  FrequencySet direct = FrequencySet::Compute(table, qid, half);
  EXPECT_EQ(projected.NumGroups(), direct.NumGroups());
  EXPECT_EQ(projected.TuplesBelowK(5), direct.TuplesBelowK(5));
  EXPECT_EQ(projected.MinCount(), direct.MinCount());
}

TEST(FrequencySetPropertyTest, FallbackGroupsVisitInCanonicalOrder) {
  // The canonical-order regression on the vector-key storage path, where
  // there is no packed key to lean on — the sort compares code vectors.
  testing_util::RandomDataset ds = testing_util::MakeWideFallbackDataset(300);
  const size_t n = ds.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  SubsetNode bottom(dims, std::vector<int32_t>(n, 0));
  FrequencySet fs = FrequencySet::Compute(ds.table, ds.qid, bottom);
  ExpectCanonicalOrder(fs);
  ExpectCanonicalOrder(
      fs.RollupTo(SubsetNode(dims, {1, 0, 1, 0, 1, 0}), ds.qid));
  ExpectCanonicalOrder(fs.ProjectTo(SubsetNode({0, 2, 4}, {0, 0, 0}), ds.qid));
}

TEST(FrequencySetPropertyTest, PooledScanMatchesSerialOnFallback) {
  testing_util::RandomDataset ds = testing_util::MakeWideFallbackDataset(500);
  const size_t n = ds.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  SubsetNode bottom(dims, std::vector<int32_t>(n, 0));
  FrequencySet serial = FrequencySet::Compute(ds.table, ds.qid, bottom);
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    FrequencySet parallel = PooledScan(ds.table, ds.qid, bottom, pool);
    EXPECT_EQ(GroupsOf(serial), GroupsOf(parallel)) << threads;
    EXPECT_EQ(serial.MemoryBytes(), parallel.MemoryBytes()) << threads;
  }
}

TEST(FrequencySetEdgeTest, ZeroRowTable) {
  // An empty relation is vacuously k-anonymous for every k; every
  // statistic must come back zero instead of tripping on empty containers.
  Rng rng(5);
  testing_util::RandomDatasetOptions opts;
  opts.num_rows = 0;
  testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
  const size_t n = ds.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  SubsetNode bottom(dims, std::vector<int32_t>(n, 0));
  FrequencySet fs = FrequencySet::Compute(ds.table, ds.qid, bottom);
  EXPECT_EQ(fs.NumGroups(), 0u);
  EXPECT_EQ(fs.TotalCount(), 0);
  EXPECT_EQ(fs.MinCount(), 0);
  EXPECT_EQ(fs.TuplesBelowK(2), 0);
  EXPECT_TRUE(fs.IsKAnonymous(2));
  EXPECT_TRUE(fs.IsKAnonymous(1000));
  // Rollup of nothing is still nothing, down to the footprint of a scan.
  const SubsetNode top(dims, ds.qid.MaxLevels());
  FrequencySet rolled = fs.RollupTo(top, ds.qid);
  EXPECT_EQ(rolled.NumGroups(), 0u);
  EXPECT_TRUE(rolled.IsKAnonymous(2));
  EXPECT_EQ(rolled.MemoryBytes(),
            FrequencySet::Compute(ds.table, ds.qid, top).MemoryBytes());
  // The parallel scan agrees, even with more workers than rows.
  WorkerPool pool(4);
  FrequencySet parallel = PooledScan(ds.table, ds.qid, bottom, pool);
  EXPECT_EQ(GroupsOf(fs), GroupsOf(parallel));
  EXPECT_EQ(fs.MemoryBytes(), parallel.MemoryBytes());
}

TEST(FrequencySetPropertyTest, MemoryBytesMonotoneUnderRollupOnRandomData) {
  Rng rng(246);
  for (int trial = 0; trial < 5; ++trial) {
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng);
    const size_t n = ds.qid.size();
    std::vector<int32_t> dims(n);
    for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
    std::vector<int32_t> levels(n, 0);
    FrequencySet fs =
        FrequencySet::Compute(ds.table, ds.qid, SubsetNode(dims, levels));
    size_t prev = fs.MemoryBytes();
    // Walk one attribute at a time up to its root; the footprint must be
    // non-increasing at every step of the chain.
    for (size_t i = 0; i < n; ++i) {
      int32_t height = static_cast<int32_t>(ds.qid.hierarchy(i).height());
      for (int32_t l = 1; l <= height; ++l) {
        levels[i] = l;
        fs = fs.RollupTo(SubsetNode(dims, levels), ds.qid);
        EXPECT_LE(fs.MemoryBytes(), prev) << "trial=" << trial;
        prev = fs.MemoryBytes();
      }
    }
    EXPECT_EQ(fs.NumGroups(), 1u);  // single-root hierarchies
  }
}

TEST(FrequencySetPropertyTest, TotalCountInvariantUnderOps) {
  Rng rng(321);
  testing_util::RandomDatasetOptions opts;
  opts.num_rows = 200;
  testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
  const size_t n = ds.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  FrequencySet base = FrequencySet::Compute(
      ds.table, ds.qid, SubsetNode(dims, std::vector<int32_t>(n, 0)));
  EXPECT_EQ(base.TotalCount(), 200);
  FrequencySet projected =
      base.ProjectTo(SubsetNode({dims[0]}, {0}), ds.qid);
  EXPECT_EQ(projected.TotalCount(), 200);
  SubsetNode top(dims, ds.qid.MaxLevels());
  FrequencySet rolled = base.RollupTo(top, ds.qid);
  EXPECT_EQ(rolled.TotalCount(), 200);
  EXPECT_EQ(rolled.NumGroups(), 1u);  // single-root hierarchies
}

// ---------------------------------------------------------------------------
// Rollup == rescan, exactly, on both of RollupTo's packed aggregations and
// at the key-width edges.
// ---------------------------------------------------------------------------

/// RollupTo's selection rule: a packed target whose key space is at most
/// twice the source's group count is counted in a direct-address array;
/// any other packed target is radix-regrouped.
bool CountsDensely(const FrequencySet& source, const QuasiIdentifier& qid,
                   const SubsetNode& target) {
  const size_t bits = KeyBits(qid, target);
  return bits < 64 && (uint64_t{1} << bits) <= 2 * source.NumGroups();
}

/// The same groups in the same canonical order, the same total, and the
/// same exact footprint as a scan at the target.
void ExpectRollupEqualsRescan(const Table& table, const QuasiIdentifier& qid,
                              const FrequencySet& source,
                              const SubsetNode& target) {
  FrequencySet rolled = source.RollupTo(target, qid);
  FrequencySet direct = FrequencySet::Compute(table, qid, target);
  EXPECT_EQ(GroupsOf(rolled), GroupsOf(direct)) << target.ToString();
  EXPECT_EQ(rolled.TotalCount(), direct.TotalCount()) << target.ToString();
  EXPECT_EQ(rolled.MemoryBytes(), direct.MemoryBytes()) << target.ToString();
}

TEST(FrequencySetRollupTest, HeavyMergeCountsIntoADenseArray) {
  // 2,000 rows over at most 512 base combinations: every target one level
  // up has far fewer possible keys than the source has groups.
  Rng rng(77);
  testing_util::RandomDatasetOptions opts;
  opts.min_domain = 4;
  opts.num_rows = 2000;
  testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
  const size_t n = ds.qid.size();
  FrequencySet base = FrequencySet::Compute(
      ds.table, ds.qid, SubsetNode::Full(std::vector<int32_t>(n, 0)));
  for (size_t raised = 0; raised < n; ++raised) {
    std::vector<int32_t> levels(n, 0);
    levels[raised] = 1;
    const SubsetNode target = SubsetNode::Full(levels);
    ASSERT_TRUE(CountsDensely(base, ds.qid, target)) << target.ToString();
    ExpectRollupEqualsRescan(ds.table, ds.qid, base, target);
  }
  const SubsetNode up = SubsetNode::Full(std::vector<int32_t>(n, 1));
  ASSERT_TRUE(CountsDensely(base, ds.qid, up));
  ExpectRollupEqualsRescan(ds.table, ds.qid, base, up);
}

TEST(FrequencySetRollupTest, SparseTargetRegroupsByRadix) {
  // 30 rows over 200-400-value base domains, raised one level to 100-200
  // values: 21-24 target bits against at most 30 source groups.
  Rng rng(78);
  testing_util::RandomDatasetOptions opts;
  opts.min_domain = 200;
  opts.max_domain = 400;
  opts.num_rows = 30;
  testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
  const size_t n = ds.qid.size();
  FrequencySet base = FrequencySet::Compute(
      ds.table, ds.qid, SubsetNode::Full(std::vector<int32_t>(n, 0)));
  std::vector<std::vector<int32_t>> targets = {std::vector<int32_t>(n, 0),
                                               std::vector<int32_t>(n, 1)};
  targets.push_back(std::vector<int32_t>(n, 0));
  targets.back()[0] = 1;
  for (const std::vector<int32_t>& levels : targets) {
    const SubsetNode target = SubsetNode::Full(levels);
    ASSERT_FALSE(CountsDensely(base, ds.qid, target)) << target.ToString();
    ExpectRollupEqualsRescan(ds.table, ds.qid, base, target);
  }
}

TEST(FrequencySetRollupTest, AllZeroBitTargetIsOneGroup) {
  // Every field of the all-root target is zero bits wide: a one-slot count
  // array, from a sparse source and from a heavy one.
  for (size_t rows : {size_t{3}, size_t{500}}) {
    Rng rng(79);
    testing_util::RandomDatasetOptions opts;
    opts.num_rows = rows;
    testing_util::RandomDataset ds =
        testing_util::MakeRandomDataset(rng, opts);
    const size_t n = ds.qid.size();
    FrequencySet base = FrequencySet::Compute(
        ds.table, ds.qid, SubsetNode::Full(std::vector<int32_t>(n, 0)));
    const SubsetNode top = SubsetNode::Full(ds.qid.MaxLevels());
    ASSERT_EQ(KeyBits(ds.qid, top), 0u);
    ExpectRollupEqualsRescan(ds.table, ds.qid, base, top);
  }
}

/// Five attributes whose base key is exactly 64 bits wide and leads with a
/// zero-bit field: a0 has one value; a1-a4 have 65,536 values (16 bits)
/// under 256 parents each, then '*'. Rows draw a1-a4 uniformly.
testing_util::RandomDataset MakeFullWidthKeyDataset(size_t num_rows) {
  constexpr size_t kAttrs = 5;
  constexpr size_t kWideDomain = size_t{1} << 16;
  std::vector<ColumnSpec> specs;
  for (size_t i = 0; i < kAttrs; ++i) {
    specs.push_back({StringPrintf("a%zu", i), DataType::kInt64});
  }
  Table table{Schema(specs)};
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < kAttrs; ++i) {
    const size_t domain = i == 0 ? 1 : kWideDomain;
    std::vector<std::vector<Value>> levels(3);
    std::vector<std::vector<int32_t>> parents(2);
    for (size_t v = 0; v < domain; ++v) {
      Value value(static_cast<int64_t>(v));
      table.mutable_dictionary(i).GetOrInsert(value);
      levels[0].push_back(value);
      parents[0].push_back(static_cast<int32_t>(v / 256));
    }
    for (size_t p = 0; p < (domain + 255) / 256; ++p) {
      levels[1].push_back(Value(StringPrintf("g%zu", p)));
      parents[1].push_back(0);
    }
    levels[2].push_back(Value("*"));
    const std::string name = StringPrintf("a%zu", i);
    hierarchies.emplace_back(
        name, ValueHierarchy::Create(name, levels, parents).value());
  }
  Rng rng(2005);
  std::vector<int32_t> codes(kAttrs, 0);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t i = 1; i < kAttrs; ++i) {
      codes[i] = static_cast<int32_t>(rng.Uniform(kWideDomain));
    }
    table.AppendRowCodes(codes);
  }
  testing_util::RandomDataset out;
  out.qid = QuasiIdentifier::Create(table, std::move(hierarchies)).value();
  out.table = std::move(table);
  return out;
}

TEST(FrequencySetRollupTest, FullWidthKeyWithZeroBitLeadingField) {
  // The zero-bit leading field sits at bit 64 of both the source key and
  // the identity target's key; remapping must not shift by 64 (UBSan
  // builds fail on it).
  testing_util::RandomDataset ds = MakeFullWidthKeyDataset(30);
  const SubsetNode bottom = SubsetNode::Full({0, 0, 0, 0, 0});
  ASSERT_EQ(KeyBits(ds.qid, bottom), 64u);
  FrequencySet base = FrequencySet::Compute(ds.table, ds.qid, bottom);
  for (const std::vector<int32_t>& levels :
       std::vector<std::vector<int32_t>>{{0, 0, 0, 0, 0},
                                         {1, 0, 0, 0, 0},
                                         {0, 1, 0, 0, 1},
                                         {1, 1, 1, 1, 1},
                                         {2, 2, 2, 2, 2}}) {
    ExpectRollupEqualsRescan(ds.table, ds.qid, base,
                             SubsetNode::Full(levels));
  }
}

TEST(FrequencySetRollupTest, UnpackedSourceToPackedTarget) {
  // The 72-bit vector-key source rolled up to 60-, 36-, 12- and 0-bit
  // packed targets: radix-regrouped, then counted densely at the top.
  testing_util::RandomDataset ds = testing_util::MakeWideFallbackDataset(500);
  const SubsetNode bottom = SubsetNode::Full(std::vector<int32_t>(6, 0));
  ASSERT_GT(KeyBits(ds.qid, bottom), 64u);
  FrequencySet base = FrequencySet::Compute(ds.table, ds.qid, bottom);
  for (const std::vector<int32_t>& levels :
       std::vector<std::vector<int32_t>>{{1, 0, 0, 0, 0, 0},
                                         {1, 0, 1, 0, 1, 0},
                                         {1, 1, 1, 1, 1, 0},
                                         {1, 1, 1, 1, 1, 1}}) {
    const SubsetNode target = SubsetNode::Full(levels);
    ASSERT_LE(KeyBits(ds.qid, target), 64u);
    EXPECT_EQ(CountsDensely(base, ds.qid, target), levels[5] == 1);
    ExpectRollupEqualsRescan(ds.table, ds.qid, base, target);
  }
}

}  // namespace
}  // namespace incognito
