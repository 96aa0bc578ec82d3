#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/worker_pool.h"
#include "data/patients.h"
#include "freq/cube.h"
#include "robust/governor.h"
#include "test_util.h"

namespace incognito {
namespace {

/// Every non-empty subset of {0..n-1} as ascending QID index lists.
std::vector<std::vector<int32_t>> AllSubsets(size_t n) {
  std::vector<std::vector<int32_t>> out;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<int32_t> dims;
    for (size_t d = 0; d < n; ++d) {
      if (mask & (1u << d)) dims.push_back(static_cast<int32_t>(d));
    }
    out.push_back(std::move(dims));
  }
  return out;
}

/// Asserts two frequency sets are identical group for group — contents,
/// canonical order, and footprint.
void ExpectSameFrequencySet(const FrequencySet& a, const FrequencySet& b) {
  using Groups = std::vector<std::pair<std::vector<int32_t>, int64_t>>;
  auto collect = [](const FrequencySet& fs) {
    Groups out;
    const size_t width = fs.node().size();
    fs.ForEachGroup([&](const int32_t* codes, int64_t count) {
      out.emplace_back(std::vector<int32_t>(codes, codes + width), count);
    });
    return out;
  };
  EXPECT_EQ(collect(a), collect(b));
  EXPECT_EQ(a.TotalCount(), b.TotalCount());
  EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes());
}

/// Asserts a build equals the independent oracle: each subset's set is a
/// fresh scan of its zero node, and the BuildInfo totals are the sums over
/// those scans.
void ExpectCubeMatchesScans(const Table& table, const QuasiIdentifier& qid,
                            const ZeroGenCube& cube,
                            const ZeroGenCube::BuildInfo& info) {
  const size_t n = qid.size();
  size_t groups = 0;
  size_t bytes = 0;
  for (const auto& dims : AllSubsets(n)) {
    SubsetNode node(dims, std::vector<int32_t>(dims.size(), 0));
    FrequencySet direct = FrequencySet::Compute(table, qid, node);
    SCOPED_TRACE(node.ToString());
    ExpectSameFrequencySet(direct, cube.Get(dims));
    groups += direct.NumGroups();
    bytes += direct.MemoryBytes();
  }
  const size_t subsets = (size_t{1} << n) - 1;
  EXPECT_EQ(cube.num_subsets(), subsets);
  EXPECT_EQ(info.num_subsets, subsets);
  EXPECT_EQ(info.total_groups, groups);
  EXPECT_EQ(info.total_bytes, bytes);
  EXPECT_EQ(info.table_scans, 1);
  EXPECT_EQ(info.projections, static_cast<int64_t>(subsets - 1));
}

constexpr int kThreadCounts[] = {1, 2, 4, 8};

TEST(CubeTest, PatientsCubeCoversAllSubsets) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  WorkerPool pool(1);
  ZeroGenCube::BuildInfo info;
  ZeroGenCube cube = ZeroGenCube::Build(ds->table, ds->qid, pool, &info);
  EXPECT_EQ(cube.num_subsets(), 7u);  // 2^3 - 1
  EXPECT_EQ(info.num_subsets, 7u);
  EXPECT_EQ(info.table_scans, 1);      // only the full set scans T
  EXPECT_EQ(info.projections, 6);      // every other subset aggregated
  EXPECT_GT(info.total_groups, 0u);
  EXPECT_GT(info.total_bytes, 0u);
}

TEST(CubeTest, BuildMatchesScansOnPatients) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  for (int threads : kThreadCounts) {
    WorkerPool pool(threads);
    ZeroGenCube::BuildInfo info;
    ZeroGenCube cube = ZeroGenCube::Build(ds->table, ds->qid, pool, &info);
    SCOPED_TRACE(threads);
    ExpectCubeMatchesScans(ds->table, ds->qid, cube, info);
  }
}

TEST(CubeTest, RollupFromCubeEntryMatchesScan) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  WorkerPool pool(1);
  ZeroGenCube cube = ZeroGenCube::Build(ds->table, ds->qid, pool);
  // Cube Incognito's access pattern: roll a zero-generalization entry up
  // to an arbitrary node of the same attribute subset.
  SubsetNode target({1, 2}, {1, 1});
  FrequencySet rolled = cube.Get({1, 2}).RollupTo(target, ds->qid);
  FrequencySet direct = FrequencySet::Compute(ds->table, ds->qid, target);
  EXPECT_EQ(rolled.NumGroups(), direct.NumGroups());
  EXPECT_EQ(rolled.MinCount(), direct.MinCount());
}

TEST(CubeTest, BuildMatchesScansOnRandomData) {
  Rng rng(4242);
  for (int trial = 0; trial < 3; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 4;
    opts.num_rows = 120;
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    for (int threads : kThreadCounts) {
      WorkerPool pool(threads);
      ZeroGenCube::BuildInfo info;
      ZeroGenCube cube = ZeroGenCube::Build(ds.table, ds.qid, pool, &info);
      SCOPED_TRACE(trial * 100 + threads);
      ExpectCubeMatchesScans(ds.table, ds.qid, cube, info);
    }
  }
}

TEST(CubeTest, BuildMatchesScansOnWideKeys) {
  // Seven 12-bit attributes: the 84-bit root projects onto 72-bit vector
  // keys (a FlatCodeMap) and 60-bit packed ones, and those vector sets
  // project onward onto packed keys.
  testing_util::RandomDataset ds =
      testing_util::MakeWideFallbackDataset(300, 7);
  ASSERT_GT(testing_util::KeyBits(ds.qid, SubsetNode({0, 1, 2, 3, 4, 5},
                                                     {0, 0, 0, 0, 0, 0})),
            64u);
  for (int threads : kThreadCounts) {
    WorkerPool pool(threads);
    ZeroGenCube::BuildInfo info;
    ZeroGenCube cube = ZeroGenCube::Build(ds.table, ds.qid, pool, &info);
    SCOPED_TRACE(threads);
    ExpectCubeMatchesScans(ds.table, ds.qid, cube, info);
  }
}

TEST(CubeTest, SingleAttributeQid) {
  // n == 1: no projections and no tiers — the build is the root scan.
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  QuasiIdentifier qid1 = ds->qid.Prefix(1);
  for (int threads : {1, 4}) {
    WorkerPool pool(threads);
    ZeroGenCube::BuildInfo info;
    ZeroGenCube cube = ZeroGenCube::Build(ds->table, qid1, pool, &info);
    EXPECT_EQ(cube.num_subsets(), 1u);
    EXPECT_EQ(info.projections, 0);
    EXPECT_EQ(info.table_scans, 1);
    EXPECT_EQ(cube.Get({0}).TotalCount(), 6);
  }
}

TEST(CubeTest, GovernedBuildMatchesScansAndBalances) {
  Result<PatientsDataset> patients = MakePatientsDataset();
  ASSERT_TRUE(patients.ok());
  Rng rng(4242);
  testing_util::RandomDatasetOptions opts;
  opts.num_attrs = 4;
  opts.num_rows = 120;
  testing_util::RandomDataset random =
      testing_util::MakeRandomDataset(rng, opts);
  testing_util::RandomDataset wide =
      testing_util::MakeWideFallbackDataset(300, 7);
  const std::pair<const Table*, const QuasiIdentifier*> inputs[] = {
      {&patients->table, &patients->qid},
      {&random.table, &random.qid},
      {&wide.table, &wide.qid}};
  for (const auto& [table, qid] : inputs) {
    for (int threads : kThreadCounts) {
      WorkerPool pool(threads);
      ExecutionGovernor governor;
      governor.SetMemoryLimitBytes(int64_t{1} << 30);
      ZeroGenCube::BuildInfo info;
      ZeroGenCube cube =
          ZeroGenCube::Build(*table, *qid, pool, &info, &governor);
      SCOPED_TRACE(std::to_string(qid->size()) + " attributes, threads=" +
                   std::to_string(threads));
      ASSERT_FALSE(governor.Tripped());
      ExpectCubeMatchesScans(*table, *qid, cube, info);
      // The governor holds exactly the cube's footprint: the transient
      // worker leases are gone, and ReleaseMemory balances to zero.
      EXPECT_EQ(governor.memory().used(),
                static_cast<int64_t>(info.total_bytes));
      cube.ReleaseMemory(&governor);
      EXPECT_EQ(governor.memory().used(), 0);
    }
  }
}

TEST(CubeTest, GovernedBuildTinyBudgetTripsCleanly) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  for (int threads : {1, 4}) {
    WorkerPool pool(threads);
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(64);
    ZeroGenCube::BuildInfo info;
    ZeroGenCube cube =
        ZeroGenCube::Build(ds->table, ds->qid, pool, &info, &governor);
    SCOPED_TRACE(threads);
    EXPECT_TRUE(governor.Tripped());
    // A tripped build hands back nothing and leaks nothing.
    EXPECT_EQ(cube.num_subsets(), 0u);
    EXPECT_EQ(info.num_subsets, 0u);
    EXPECT_EQ(governor.memory().used(), 0);
  }
}

}  // namespace
}  // namespace incognito
