#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/binary_search.h"
#include "core/bottom_up.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "core/recoder.h"
#include "freq/frequency_set.h"
#include "lattice/lattice.h"
#include "metrics/metrics.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::GroupsOf;
using testing_util::MakeRandomDataset;
using testing_util::NodeSet;
using testing_util::RandomDataset;
using testing_util::RandomDatasetOptions;

/// Parameterized over PRNG seeds: each seed generates an independent
/// random table + hierarchies, on which the paper's three properties and
/// the soundness/completeness theorem are verified against brute force.
class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    RandomDatasetOptions opts;
    opts.num_attrs = 2 + rng.Uniform(3);  // 2..4 attributes
    opts.num_rows = 20 + rng.Uniform(100);
    dataset_ = MakeRandomDataset(rng, opts);
    k_ = 2 + static_cast<int64_t>(rng.Uniform(4));
    config_.k = k_;
  }

  /// Brute-force set of k-anonymous full-domain generalizations.
  std::set<std::string> Oracle(const AnonymizationConfig& config) {
    GeneralizationLattice lattice(dataset_.qid.MaxLevels());
    std::set<std::string> out;
    for (const LevelVector& v : lattice.AllNodesByHeight()) {
      SubsetNode node = SubsetNode::Full(v);
      if (IsKAnonymous(dataset_.table, dataset_.qid, node, config)) {
        out.insert(node.ToString());
      }
    }
    return out;
  }

  RandomDataset dataset_;
  int64_t k_ = 2;
  AnonymizationConfig config_;
};

TEST_P(SeededPropertyTest, GeneralizationProperty) {
  // If T is k-anonymous w.r.t. P, it is k-anonymous w.r.t. every direct
  // generalization of P (paper §3).
  GeneralizationLattice lattice(dataset_.qid.MaxLevels());
  for (const LevelVector& v : lattice.AllNodesByHeight()) {
    SubsetNode node = SubsetNode::Full(v);
    if (!IsKAnonymous(dataset_.table, dataset_.qid, node, config_)) continue;
    for (const LevelVector& g : lattice.DirectGeneralizations(v)) {
      EXPECT_TRUE(IsKAnonymous(dataset_.table, dataset_.qid,
                               SubsetNode::Full(g), config_))
          << "generalization of anonymous node is not anonymous";
    }
  }
}

TEST_P(SeededPropertyTest, SubsetProperty) {
  // If T is k-anonymous w.r.t. Q, it is k-anonymous w.r.t. every P ⊆ Q
  // (paper §3, the a-priori observation). Checked at base levels.
  const size_t n = dataset_.qid.size();
  std::vector<int32_t> all_dims(n);
  for (size_t i = 0; i < n; ++i) all_dims[i] = static_cast<int32_t>(i);

  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<int32_t> dims;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) dims.push_back(static_cast<int32_t>(i));
    }
    SubsetNode node(dims, std::vector<int32_t>(dims.size(), 0));
    FrequencySet fs = FrequencySet::Compute(dataset_.table, dataset_.qid, node);
    if (!fs.IsKAnonymous(k_)) continue;
    // Every sub-subset must also be k-anonymous.
    for (uint32_t sub = mask; sub > 0; sub = (sub - 1) & mask) {
      std::vector<int32_t> sub_dims;
      for (size_t i = 0; i < n; ++i) {
        if (sub & (1u << i)) sub_dims.push_back(static_cast<int32_t>(i));
      }
      SubsetNode sub_node(sub_dims,
                          std::vector<int32_t>(sub_dims.size(), 0));
      FrequencySet sub_fs =
          FrequencySet::Compute(dataset_.table, dataset_.qid, sub_node);
      EXPECT_TRUE(sub_fs.IsKAnonymous(k_))
          << "subset of anonymous attribute set is not anonymous";
    }
  }
}

TEST_P(SeededPropertyTest, RollupProperty) {
  // freq(T, Q) computed by rollup from freq(T, P) equals direct
  // computation, for random P ≤ Q over the full QID.
  Rng rng(GetParam() ^ 0xabcdef);
  const size_t n = dataset_.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  for (int inner = 0; inner < 5; ++inner) {
    std::vector<int32_t> from(n), to(n);
    for (size_t i = 0; i < n; ++i) {
      int32_t max_level =
          static_cast<int32_t>(dataset_.qid.hierarchy(i).height());
      from[i] = static_cast<int32_t>(rng.Uniform(max_level + 1));
      to[i] = from[i] + static_cast<int32_t>(
                            rng.Uniform(max_level - from[i] + 1));
    }
    FrequencySet base = FrequencySet::Compute(dataset_.table, dataset_.qid,
                                              SubsetNode(dims, from));
    FrequencySet rolled = base.RollupTo(SubsetNode(dims, to), dataset_.qid);
    FrequencySet direct = FrequencySet::Compute(dataset_.table, dataset_.qid,
                                                SubsetNode(dims, to));
    EXPECT_EQ(GroupsOf(rolled), GroupsOf(direct));
    EXPECT_EQ(rolled.MemoryBytes(), direct.MemoryBytes());
    EXPECT_EQ(rolled.NumGroups(), direct.NumGroups());
    EXPECT_EQ(rolled.MinCount(), direct.MinCount());
    EXPECT_EQ(rolled.TuplesBelowK(k_), direct.TuplesBelowK(k_));
  }
}

TEST_P(SeededPropertyTest, IncognitoSoundAndComplete) {
  std::set<std::string> oracle = Oracle(config_);
  for (IncognitoVariant variant :
       {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots,
        IncognitoVariant::kCube}) {
    IncognitoOptions opts;
    opts.variant = variant;
    PartialResult<IncognitoResult> r =
        RunIncognito(dataset_.table, dataset_.qid, config_, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(NodeSet(r->anonymous_nodes), oracle)
        << IncognitoVariantName(variant) << " k=" << k_;
  }
}

TEST_P(SeededPropertyTest, ParallelIncognitoMatchesOracle) {
  std::set<std::string> oracle = Oracle(config_);
  int threads = 2 + static_cast<int>(GetParam() % 3);  // 2..4 workers
  PartialResult<IncognitoResult> r = RunIncognito(
      dataset_.table, dataset_.qid, config_, IncognitoOptions{}, RunContext::WithThreads(threads));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(NodeSet(r->anonymous_nodes), oracle) << "threads=" << threads;
}

TEST_P(SeededPropertyTest, ParallelGovernorAlwaysDrainsToZero) {
  // Invariant: whatever way a parallel run ends — completed, deadline,
  // cancelled, or budget-tripped — every charged byte is released
  // (used() == 0) and the budget's peak stays within its limit
  // (docs/PARALLELISM.md).
  const int64_t limit = int64_t{16} << 10;
  CancelToken cancelled;
  cancelled.Cancel();
  struct Scenario {
    const char* name;
    Deadline deadline;
    int64_t memory_limit;  // 0 = unlimited
    const CancelToken* token;
  } scenarios[] = {
      {"complete", Deadline::Infinite(), 0, nullptr},
      {"deadline", Deadline::AfterMillis(0), 0, nullptr},
      {"memory", Deadline::Infinite(), limit, nullptr},
      {"cancelled", Deadline::Infinite(), 0, &cancelled},
  };
  for (const Scenario& s : scenarios) {
    ExecutionGovernor governor;
    governor.SetDeadline(s.deadline);
    if (s.memory_limit > 0) governor.SetMemoryLimitBytes(s.memory_limit);
    governor.SetCancelToken(s.token);
    PartialResult<IncognitoResult> run = RunIncognito(
        dataset_.table, dataset_.qid, config_, IncognitoOptions{}, RunContext::Governed(governor, 4));
    ASSERT_FALSE(run.hard_error()) << s.name << ": " << run.status().ToString();
    EXPECT_EQ(governor.memory().used(), 0) << s.name;
    if (s.memory_limit > 0) {
      EXPECT_LE(governor.memory().peak(), s.memory_limit) << s.name;
    }
    if (run.complete()) {
      EXPECT_EQ(NodeSet(run->anonymous_nodes), Oracle(config_)) << s.name;
    }
  }
}

TEST_P(SeededPropertyTest, IncognitoSoundCompleteWithSuppression) {
  AnonymizationConfig config = config_;
  config.max_suppressed = static_cast<int64_t>(GetParam() % 7);
  std::set<std::string> oracle = Oracle(config);
  PartialResult<IncognitoResult> r =
      RunIncognito(dataset_.table, dataset_.qid, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(NodeSet(r->anonymous_nodes), oracle);
}

TEST_P(SeededPropertyTest, BottomUpMatchesOracle) {
  std::set<std::string> oracle = Oracle(config_);
  for (bool rollup : {false, true}) {
    BottomUpOptions opts;
    opts.use_rollup = rollup;
    PartialResult<BottomUpResult> r =
        RunBottomUpBfs(dataset_.table, dataset_.qid, config_, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(NodeSet(r->anonymous_nodes), oracle);
  }
}

TEST_P(SeededPropertyTest, BinarySearchFindsTrueMinimalHeight) {
  std::set<std::string> oracle = Oracle(config_);
  PartialResult<BinarySearchResult> r =
      RunSamaratiBinarySearch(dataset_.table, dataset_.qid, config_);
  ASSERT_TRUE(r.ok());
  if (oracle.empty()) {
    EXPECT_FALSE(r->found);
    return;
  }
  ASSERT_TRUE(r->found);
  EXPECT_TRUE(oracle.count(r->node.ToString()) > 0);
  // No oracle node sits strictly below the returned height.
  GeneralizationLattice lattice(dataset_.qid.MaxLevels());
  for (int32_t h = 0; h < r->node.Height(); ++h) {
    for (const LevelVector& v : lattice.NodesAtHeight(h)) {
      EXPECT_EQ(oracle.count(SubsetNode::Full(v).ToString()), 0u);
    }
  }
}

TEST_P(SeededPropertyTest, RecodedViewIsKAnonymousAndAncestral) {
  PartialResult<IncognitoResult> r =
      RunIncognito(dataset_.table, dataset_.qid, config_);
  ASSERT_TRUE(r.ok());
  if (r->anonymous_nodes.empty()) return;
  const SubsetNode& node = r->anonymous_nodes.front();
  Result<RecodeResult> view = ApplyFullDomainGeneralization(
      dataset_.table, dataset_.qid, node, config_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->suppressed_tuples, 0);  // no suppression configured

  // k-anonymity of the released view.
  std::vector<std::string> cols;
  for (size_t i = 0; i < dataset_.qid.size(); ++i) {
    cols.push_back(dataset_.qid.name(i));
  }
  Result<std::vector<int64_t>> sizes = ClassSizes(view->view, cols);
  ASSERT_TRUE(sizes.ok());
  for (int64_t size : *sizes) EXPECT_GE(size, k_);

  // Ancestry: every released cell is the γ+ image of the original value.
  for (size_t row = 0; row < view->view.num_rows(); ++row) {
    for (size_t i = 0; i < dataset_.qid.size(); ++i) {
      size_t level = static_cast<size_t>(node.levels[i]);
      const ValueHierarchy& h = dataset_.qid.hierarchy(i);
      int32_t base_code = dataset_.table.GetCode(row, dataset_.qid.column(i));
      Value expected(
          h.LevelValue(level, h.Generalize(base_code, level)).ToString());
      if (level == 0) {
        expected = h.LevelValue(0, base_code);
      }
      EXPECT_EQ(view->view.GetValue(row, dataset_.qid.column(i)), expected);
    }
  }
}

TEST_P(SeededPropertyTest, SuppressionBudgetIsRespected) {
  AnonymizationConfig config = config_;
  config.max_suppressed = static_cast<int64_t>(5 + GetParam() % 10);
  PartialResult<IncognitoResult> r =
      RunIncognito(dataset_.table, dataset_.qid, config);
  ASSERT_TRUE(r.ok());
  for (const SubsetNode& node : r->anonymous_nodes) {
    Result<RecodeResult> view = ApplyFullDomainGeneralization(
        dataset_.table, dataset_.qid, node, config);
    ASSERT_TRUE(view.ok());
    EXPECT_LE(view->suppressed_tuples, config.max_suppressed);
    EXPECT_EQ(view->view.num_rows() + static_cast<size_t>(
                                          view->suppressed_tuples),
              dataset_.table.num_rows());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTables, SeededPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace incognito
