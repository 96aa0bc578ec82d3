#include <gtest/gtest.h>

#include "core/incognito.h"
#include "core/minimality.h"
#include "data/adults.h"
#include "data/patients.h"
#include "hierarchy/builders.h"
#include "metrics/metrics.h"
#include "models/cell_generalization.h"
#include "models/cell_suppression.h"
#include "models/datafly.h"
#include "models/mondrian.h"
#include "models/ordered_set.h"
#include "models/subgraph.h"
#include "models/subtree.h"
#include "relation/csv.h"
#include "robust/checkpoint.h"
#include "test_util.h"

namespace incognito {
namespace {

/// Asserts every equivalence class of `view` (grouped on the named
/// columns) has at least k members.
void ExpectViewKAnonymous(const Table& view,
                          const std::vector<std::string>& qid_columns,
                          int64_t k) {
  Result<std::vector<int64_t>> sizes = ClassSizes(view, qid_columns);
  ASSERT_TRUE(sizes.ok());
  for (int64_t size : *sizes) {
    EXPECT_GE(size, k);
  }
}

class ModelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<PatientsDataset> ds = MakePatientsDataset();
    ASSERT_TRUE(ds.ok());
    table_ = std::move(ds->table);
    qid_ = std::move(ds->qid);
    qid_columns_ = {"Birthdate", "Sex", "Zipcode"};
  }

  AnonymizationConfig K(int64_t k) {
    AnonymizationConfig c;
    c.k = k;
    return c;
  }

  Table table_;
  QuasiIdentifier qid_;
  std::vector<std::string> qid_columns_;
};

// ---------------------------------------------------------------------------
// Datafly
// ---------------------------------------------------------------------------

TEST_F(ModelsTest, DataflyProducesKAnonymousView) {
  PartialResult<DataflyResult> r = RunDatafly(table_, qid_, K(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectViewKAnonymous(r->view, qid_columns_, 2);
  EXPECT_LE(r->suppressed_tuples, 2);  // budget = max(k, max_suppressed)
}

TEST_F(ModelsTest, DataflyNodeIsValidGeneralization) {
  PartialResult<DataflyResult> r = RunDatafly(table_, qid_, K(2));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->node.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GE(r->node.levels[i], 0);
    EXPECT_LE(static_cast<size_t>(r->node.levels[i]),
              qid_.hierarchy(i).height());
  }
}

TEST_F(ModelsTest, DataflyNeverBeatsIncognitoMinimality) {
  // Datafly has no minimality guarantee; Incognito's height-minimal result
  // is at most Datafly's height once suppression budgets match.
  AnonymizationConfig config = K(2);
  PartialResult<DataflyResult> df = RunDatafly(table_, qid_, config);
  ASSERT_TRUE(df.ok());
  AnonymizationConfig with_budget = config;
  with_budget.max_suppressed = std::max(config.k, config.max_suppressed);
  PartialResult<IncognitoResult> inc = RunIncognito(table_, qid_, with_budget);
  ASSERT_TRUE(inc.ok());
  std::vector<SubsetNode> minimal = MinimalByHeight(inc->anonymous_nodes);
  ASSERT_FALSE(minimal.empty());
  EXPECT_LE(minimal[0].Height(), df->node.Height());
}

TEST_F(ModelsTest, DataflyInvalidK) {
  EXPECT_FALSE(RunDatafly(table_, qid_, K(0)).ok());
}

// ---------------------------------------------------------------------------
// Greedy full-subtree recoding
// ---------------------------------------------------------------------------

TEST_F(ModelsTest, SubtreeProducesKAnonymousView) {
  Result<SubtreeResult> r = RunGreedySubtree(table_, qid_, K(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectViewKAnonymous(r->view, qid_columns_, 2);
  EXPECT_GE(r->promotions, 0);
}

TEST_F(ModelsTest, SubtreeK1IsIdentity) {
  Result<SubtreeResult> r = RunGreedySubtree(table_, qid_, K(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->promotions, 0);
  EXPECT_EQ(r->suppressed_tuples, 0);
  EXPECT_EQ(r->view.num_rows(), table_.num_rows());
}

TEST_F(ModelsTest, SubtreeInvalidK) {
  EXPECT_FALSE(RunGreedySubtree(table_, qid_, K(0)).ok());
}

// ---------------------------------------------------------------------------
// Ordered-set partitioning
// ---------------------------------------------------------------------------

TEST_F(ModelsTest, OrderedSetProducesKAnonymousView) {
  PartialResult<OrderedSetResult> r = RunOrderedSetPartition(table_, qid_, K(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectViewKAnonymous(r->view, qid_columns_, 2);
  EXPECT_EQ(r->intervals_per_attribute.size(), 3u);
}

TEST_F(ModelsTest, OrderedSetK1IsIdentityPartition) {
  PartialResult<OrderedSetResult> r = RunOrderedSetPartition(table_, qid_, K(1));
  ASSERT_TRUE(r.ok());
  // Singleton intervals everywhere: distinct counts preserved.
  EXPECT_EQ(r->intervals_per_attribute[0], 3u);  // birthdates
  EXPECT_EQ(r->intervals_per_attribute[1], 2u);  // sexes
  EXPECT_EQ(r->intervals_per_attribute[2], 3u);  // zipcodes
  EXPECT_EQ(r->view.num_rows(), 6u);
}

TEST_F(ModelsTest, OrderedSetInvalidK) {
  EXPECT_FALSE(RunOrderedSetPartition(table_, qid_, K(0)).ok());
}

// ---------------------------------------------------------------------------
// Optimal univariate ordered-set partitioning (exact DP)
// ---------------------------------------------------------------------------

/// Builds a single-int-attribute dataset from a histogram: value i appears
/// hist[i] times.
struct UniDataset {
  Table table;
  QuasiIdentifier qid;
};

UniDataset MakeUniDataset(const std::vector<int64_t>& hist) {
  Table table{Schema({{"v", DataType::kInt64}})};
  for (size_t i = 0; i < hist.size(); ++i) {
    for (int64_t n = 0; n < hist[i]; ++n) {
      EXPECT_TRUE(table.AppendRow({Value(static_cast<int64_t>(i))}).ok());
    }
  }
  ValueHierarchy h =
      BuildSuppressionHierarchy("v", table.dictionary(0)).value();
  UniDataset out;
  out.qid = QuasiIdentifier::Create(table, {{"v", std::move(h)}}).value();
  out.table = std::move(table);
  return out;
}

/// Brute force: minimal Σ size² over all consecutive partitions with every
/// interval count >= k.
double BruteForceOptimal(const std::vector<int64_t>& hist, int64_t k) {
  size_t m = hist.size();
  double best = 1e300;
  // Cut-set bitmask over the m-1 possible boundaries.
  for (uint32_t mask = 0; mask < (1u << (m - 1)); ++mask) {
    double cost = 0;
    int64_t size = 0;
    bool feasible = true;
    for (size_t i = 0; i < m; ++i) {
      size += hist[i];
      bool boundary = i + 1 == m || (mask & (1u << i));
      if (boundary) {
        if (size < k) {
          feasible = false;
          break;
        }
        cost += static_cast<double>(size) * size;
        size = 0;
      }
    }
    if (feasible) best = std::min(best, cost);
  }
  return best;
}

TEST(OptimalUnivariateTest, MatchesBruteForce) {
  Rng rng(1234);
  for (int trial = 0; trial < 12; ++trial) {
    size_t m = 3 + rng.Uniform(7);  // 3..9 distinct values
    std::vector<int64_t> hist(m);
    for (int64_t& h : hist) h = 1 + static_cast<int64_t>(rng.Uniform(5));
    int64_t k = 2 + static_cast<int64_t>(rng.Uniform(4));
    int64_t total = 0;
    for (int64_t h : hist) total += h;
    if (total < k) continue;
    UniDataset ds = MakeUniDataset(hist);
    AnonymizationConfig config;
    config.k = k;
    Result<OptimalUnivariateResult> r =
        OptimalUnivariatePartition(ds.table, ds.qid, config);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ(r->discernibility, BruteForceOptimal(hist, k));
    // The view's class sizes square-sum to the reported cost.
    Result<std::vector<int64_t>> sizes = ClassSizes(r->view, {"v"});
    ASSERT_TRUE(sizes.ok());
    double check = 0;
    for (int64_t s : *sizes) {
      EXPECT_GE(s, k);
      check += static_cast<double>(s) * s;
    }
    EXPECT_DOUBLE_EQ(check, r->discernibility);
  }
}

TEST(OptimalUnivariateTest, NeverWorseThanGreedy) {
  Rng rng(5678);
  for (int trial = 0; trial < 8; ++trial) {
    size_t m = 4 + rng.Uniform(12);
    std::vector<int64_t> hist(m);
    for (int64_t& h : hist) h = 1 + static_cast<int64_t>(rng.Uniform(8));
    UniDataset ds = MakeUniDataset(hist);
    AnonymizationConfig config;
    config.k = 3;
    Result<OptimalUnivariateResult> optimal =
        OptimalUnivariatePartition(ds.table, ds.qid, config);
    PartialResult<OrderedSetResult> greedy =
        RunOrderedSetPartition(ds.table, ds.qid, config);
    ASSERT_TRUE(optimal.ok());
    ASSERT_TRUE(greedy.ok());
    Result<QualityReport> greedy_quality = EvaluateView(
        greedy->view, {"v"}, static_cast<int64_t>(ds.table.num_rows()));
    ASSERT_TRUE(greedy_quality.ok());
    EXPECT_LE(optimal->discernibility, greedy_quality->discernibility + 1e-9);
  }
}

TEST(OptimalUnivariateTest, SingleIntervalWhenKIsTotal) {
  UniDataset ds = MakeUniDataset({2, 3, 1});
  AnonymizationConfig config;
  config.k = 6;
  Result<OptimalUnivariateResult> r =
      OptimalUnivariatePartition(ds.table, ds.qid, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->interval_sizes, (std::vector<int64_t>{6}));
  EXPECT_DOUBLE_EQ(r->discernibility, 36.0);
}

TEST(OptimalUnivariateTest, RejectsBadInputs) {
  UniDataset ds = MakeUniDataset({1, 1});
  AnonymizationConfig config;
  config.k = 3;  // more than the table
  EXPECT_EQ(OptimalUnivariatePartition(ds.table, ds.qid, config)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Multi-attribute QID rejected.
  Result<PatientsDataset> patients = MakePatientsDataset();
  ASSERT_TRUE(patients.ok());
  config.k = 2;
  EXPECT_FALSE(
      OptimalUnivariatePartition(patients->table, patients->qid, config)
          .ok());
}

// ---------------------------------------------------------------------------
// Mondrian
// ---------------------------------------------------------------------------

TEST_F(ModelsTest, MondrianProducesKAnonymousView) {
  PartialResult<MondrianResult> r = RunMondrian(table_, qid_, K(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->view.num_rows(), table_.num_rows());  // no suppression
  ExpectViewKAnonymous(r->view, qid_columns_, 2);
  EXPECT_GE(r->num_partitions, 1u);
  EXPECT_LE(r->num_partitions, 3u);  // 6 rows, k=2 → at most 3 partitions
}

TEST_F(ModelsTest, MondrianRefusesTinyTable) {
  EXPECT_EQ(RunMondrian(table_, qid_, K(7)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ModelsTest, MondrianKEqualsTableSizeSinglePartition) {
  PartialResult<MondrianResult> r = RunMondrian(table_, qid_, K(6));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_partitions, 1u);
  ExpectViewKAnonymous(r->view, qid_columns_, 6);
}

TEST_F(ModelsTest, MondrianPartitionsAtLeastK) {
  // Partition count never exceeds rows / k.
  Rng rng(55);
  testing_util::RandomDatasetOptions opts;
  opts.num_rows = 100;
  testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
  for (int64_t k : {2, 5, 10}) {
    PartialResult<MondrianResult> r = RunMondrian(ds.table, ds.qid, K(k));
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->num_partitions, static_cast<size_t>(100 / k));
    std::vector<std::string> cols;
    for (size_t i = 0; i < ds.qid.size(); ++i) cols.push_back(ds.qid.name(i));
    ExpectViewKAnonymous(r->view, cols, k);
  }
}

// ---------------------------------------------------------------------------
// Cell suppression
// ---------------------------------------------------------------------------

TEST_F(ModelsTest, CellSuppressionProducesKAnonymousView) {
  PartialResult<CellSuppressionResult> r = RunCellSuppression(table_, qid_, K(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectViewKAnonymous(r->view, qid_columns_, 2);
  EXPECT_GT(r->cells_suppressed, 0);
}

TEST_F(ModelsTest, CellSuppressionK1IsIdentity) {
  PartialResult<CellSuppressionResult> r = RunCellSuppression(table_, qid_, K(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cells_suppressed, 0);
  EXPECT_EQ(r->tuples_suppressed, 0);
  EXPECT_EQ(r->view.num_rows(), 6u);
}

TEST_F(ModelsTest, CellSuppressionIsLocalNotGlobal) {
  // Local recoding: at least one attribute should retain both an original
  // value in some tuple and '*' in another — which full-domain recoding
  // can never do.
  PartialResult<CellSuppressionResult> r = RunCellSuppression(table_, qid_, K(2));
  ASSERT_TRUE(r.ok());
  bool found_mixed = false;
  for (size_t c = 0; c < 3 && !found_mixed; ++c) {
    bool has_star = false, has_value = false;
    for (size_t row = 0; row < r->view.num_rows(); ++row) {
      std::string v = r->view.GetValue(row, c).ToString();
      if (v == "*") {
        has_star = true;
      } else {
        has_value = true;
      }
    }
    found_mixed = has_star && has_value;
  }
  EXPECT_TRUE(found_mixed);
}

// ---------------------------------------------------------------------------
// Cell generalization
// ---------------------------------------------------------------------------

TEST_F(ModelsTest, CellGeneralizationProducesKAnonymousView) {
  Result<CellGeneralizationResult> r =
      RunCellGeneralization(table_, qid_, K(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectViewKAnonymous(r->view, qid_columns_, 2);
  EXPECT_GT(r->cells_generalized, 0);
}

TEST_F(ModelsTest, CellGeneralizationK1IsIdentity) {
  Result<CellGeneralizationResult> r =
      RunCellGeneralization(table_, qid_, K(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cells_generalized, 0);
  EXPECT_EQ(r->view.num_rows(), 6u);
}

TEST_F(ModelsTest, CellGeneralizationUsesIntermediateLevels) {
  // Unlike cell suppression, intermediate hierarchy labels (e.g. 5371*)
  // can appear — finer than '*'.
  Result<CellGeneralizationResult> r =
      RunCellGeneralization(table_, qid_, K(2));
  ASSERT_TRUE(r.ok());
  bool saw_original = false;
  for (size_t row = 0; row < r->view.num_rows(); ++row) {
    for (size_t c = 0; c < 3; ++c) {
      std::string v = r->view.GetValue(row, c).ToString();
      if (v != "*" && v != "Person") saw_original = true;
    }
  }
  EXPECT_TRUE(saw_original);  // not everything collapses to the top
}

TEST_F(ModelsTest, CellGeneralizationInvalidK) {
  EXPECT_FALSE(RunCellGeneralization(table_, qid_, K(0)).ok());
}

// ---------------------------------------------------------------------------
// Multi-dimension full-subgraph recoding
// ---------------------------------------------------------------------------

TEST_F(ModelsTest, SubgraphProducesKAnonymousView) {
  Result<SubgraphResult> r = RunGreedySubgraph(table_, qid_, K(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectViewKAnonymous(r->view, qid_columns_, 2);
  EXPECT_GE(r->num_cells, 1u);
  EXPECT_GT(r->promotions, 0);
}

TEST_F(ModelsTest, SubgraphK1IsIdentity) {
  Result<SubgraphResult> r = RunGreedySubgraph(table_, qid_, K(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->promotions, 0);
  EXPECT_EQ(r->view.num_rows(), 6u);
  EXPECT_EQ(r->num_cells, 6u);  // six distinct singleton vectors
}

TEST_F(ModelsTest, SubgraphBoxesAreHierarchyAligned) {
  // Every released label must be a hierarchy label of its attribute (not
  // an arbitrary interval, unlike Mondrian).
  Result<SubgraphResult> r = RunGreedySubgraph(table_, qid_, K(2));
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < 3; ++i) {
    const ValueHierarchy& h = qid_.hierarchy(i);
    std::set<std::string> valid;
    for (size_t l = 0; l <= h.height(); ++l) {
      for (size_t c = 0; c < h.DomainSize(l); ++c) {
        valid.insert(h.LevelValue(l, static_cast<int32_t>(c)).ToString());
      }
    }
    for (size_t row = 0; row < r->view.num_rows(); ++row) {
      EXPECT_TRUE(valid.count(
                      r->view.GetValue(row, qid_.column(i)).ToString()) > 0);
    }
  }
}

TEST_F(ModelsTest, SubgraphInvalidK) {
  EXPECT_FALSE(RunGreedySubgraph(table_, qid_, K(0)).ok());
}

// ---------------------------------------------------------------------------
// All models on random data
// ---------------------------------------------------------------------------

TEST(ModelsRandomTest, AllModelsKAnonymousOnRandomData) {
  Rng rng(808);
  for (int trial = 0; trial < 5; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_rows = 80;
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    std::vector<std::string> cols;
    for (size_t i = 0; i < ds.qid.size(); ++i) cols.push_back(ds.qid.name(i));
    AnonymizationConfig config;
    config.k = 3;

    PartialResult<DataflyResult> df = RunDatafly(ds.table, ds.qid, config);
    ASSERT_TRUE(df.ok());
    ExpectViewKAnonymous(df->view, cols, config.k);

    Result<SubtreeResult> st = RunGreedySubtree(ds.table, ds.qid, config);
    ASSERT_TRUE(st.ok());
    ExpectViewKAnonymous(st->view, cols, config.k);

    PartialResult<OrderedSetResult> os =
        RunOrderedSetPartition(ds.table, ds.qid, config);
    ASSERT_TRUE(os.ok());
    ExpectViewKAnonymous(os->view, cols, config.k);

    PartialResult<MondrianResult> mo = RunMondrian(ds.table, ds.qid, config);
    ASSERT_TRUE(mo.ok());
    ExpectViewKAnonymous(mo->view, cols, config.k);

    PartialResult<CellSuppressionResult> cs =
        RunCellSuppression(ds.table, ds.qid, config);
    ASSERT_TRUE(cs.ok());
    ExpectViewKAnonymous(cs->view, cols, config.k);

    Result<CellGeneralizationResult> cg =
        RunCellGeneralization(ds.table, ds.qid, config);
    ASSERT_TRUE(cg.ok());
    ExpectViewKAnonymous(cg->view, cols, config.k);

    Result<SubgraphResult> sg = RunGreedySubgraph(ds.table, ds.qid, config);
    ASSERT_TRUE(sg.ok());
    ExpectViewKAnonymous(sg->view, cols, config.k);
  }
}

// ---------------------------------------------------------------------------
// Released bytes: the CRC-32 of each local-recoding model's view as CSV,
// pinned on Adults (600 rows, the first three attributes, k = 5). The
// values were read from the row-by-row view builders; the released CSV
// must stay byte-identical.
// ---------------------------------------------------------------------------

struct ReleasedView {
  size_t rows;
  uint32_t crc;
};

ReleasedView Released(const Table& view) {
  const std::string csv = ToCsvString(view);
  return {view.num_rows(), Crc32(csv.data(), csv.size())};
}

TEST(ModelsPinTest, LocalRecodingViewsKeepTheirBytes) {
  Result<SyntheticDataset> adults = MakeAdultsDataset(AdultsOptions{600});
  ASSERT_TRUE(adults.ok()) << adults.status().ToString();
  const Table& table = adults->table;
  const QuasiIdentifier qid = adults->qid.Prefix(3);
  AnonymizationConfig config;
  config.k = 5;
  config.max_suppressed = 10;

  Result<SubtreeResult> subtree = RunGreedySubtree(table, qid, config);
  ASSERT_TRUE(subtree.ok()) << subtree.status().ToString();
  Result<SubgraphResult> subgraph = RunGreedySubgraph(table, qid, config);
  ASSERT_TRUE(subgraph.ok()) << subgraph.status().ToString();
  PartialResult<OrderedSetResult> ordered =
      RunOrderedSetPartition(table, qid, config);
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  Result<OptimalUnivariateResult> univariate =
      OptimalUnivariatePartition(table, adults->qid.Prefix(1), config);
  ASSERT_TRUE(univariate.ok()) << univariate.status().ToString();
  PartialResult<CellSuppressionResult> cells =
      RunCellSuppression(table, qid, config);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  Result<CellGeneralizationResult> cellgen =
      RunCellGeneralization(table, qid, config);
  ASSERT_TRUE(cellgen.ok()) << cellgen.status().ToString();

  const std::vector<std::pair<const char*, ReleasedView>> views = {
      {"subtree", Released(subtree->view)},
      {"subgraph", Released(subgraph->view)},
      {"ordered set", Released(ordered->view)},
      {"optimal univariate", Released(univariate->view)},
      {"cell suppression", Released(cells->view)},
      {"cell generalization", Released(cellgen->view)},
  };
  const std::vector<ReleasedView> pinned = {
      {590, 3192462008u}, {591, 1504189703u}, {591, 1063597546u},
      {600, 2424414083u}, {598, 396277030u},  {600, 884623302u},
  };
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].second.rows, pinned[i].rows) << views[i].first;
    EXPECT_EQ(views[i].second.crc, pinned[i].crc) << views[i].first;
  }
}

}  // namespace
}  // namespace incognito
