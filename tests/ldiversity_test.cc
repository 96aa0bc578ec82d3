#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/incognito.h"
#include "core/ldiversity.h"
#include "data/adults.h"
#include "data/patients.h"
#include "lattice/lattice.h"
#include "robust/governor.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::DiverseNodesByOracle;
using testing_util::DiversityClassesByOracle;
using testing_util::GroupsOf;
using testing_util::KeyBits;
using testing_util::NodeSet;
using testing_util::RandomDataset;
using testing_util::TuplesViolatingByOracle;

/// Equivalence classes as (codes, tuples, distinct sensitive values), in
/// canonical order.
using Classes =
    std::vector<std::tuple<std::vector<int32_t>, int64_t, int64_t>>;

/// A key-QID frequency set's classes, as DiversityKey::ForEachClass visits
/// them.
Classes ClassesOf(const FrequencySet& set) {
  Classes out;
  const size_t width = set.node().size() - 1;
  DiversityKey::ForEachClass(
      set, [&](const int32_t* codes, int64_t tuples, int64_t distinct) {
        out.emplace_back(std::vector<int32_t>(codes, codes + width), tuples,
                         distinct);
      });
  return out;
}

/// The brute-force oracle's classes at `node`, in the same form.
Classes OracleClasses(const Table& table, const QuasiIdentifier& qid,
                      const SubsetNode& node, size_t sensitive_column) {
  Classes out;
  for (const auto& [codes, cls] :
       DiversityClassesByOracle(table, qid, node, sensitive_column)) {
    out.emplace_back(codes, cls.tuples,
                     static_cast<int64_t>(cls.sensitive.size()));
  }
  return out;
}

LDiversityConfig Config(int64_t k, int64_t l, int64_t max_suppressed,
                        const std::string& sensitive) {
  LDiversityConfig config;
  config.k = k;
  config.l = l;
  config.max_suppressed = max_suppressed;
  config.sensitive_attribute = sensitive;
  return config;
}

/// Runs the search at 1, 2, 4 and 8 threads. diverse_nodes must equal the
/// brute-force oracle's at each, and diverse_nodes and the six
/// deterministic counters must be identical at every thread count.
/// Returns the 1-thread result.
LDiversityResult ExpectOracleAtEveryThreadCount(
    const Table& table, const QuasiIdentifier& qid,
    const LDiversityConfig& config) {
  const size_t column =
      table.schema().ColumnIndex(config.sensitive_attribute).value();
  const std::set<std::string> oracle = DiverseNodesByOracle(
      table, qid, column, config.k, config.l, config.max_suppressed);
  LDiversityResult serial;
  for (int threads : {1, 2, 4, 8}) {
    const std::string context =
        "k=" + std::to_string(config.k) + " l=" + std::to_string(config.l) +
        " suppress=" + std::to_string(config.max_suppressed) +
        " threads=" + std::to_string(threads);
    PartialResult<LDiversityResult> r = RunLDiversityIncognito(
        table, qid, config, RunContext::WithThreads(threads));
    if (!r.complete()) {
      ADD_FAILURE() << context << ": " << r.status().ToString();
      return serial;
    }
    EXPECT_EQ(NodeSet(r->diverse_nodes), oracle) << context;
    EXPECT_EQ(r->stats.parallel_workers, threads) << context;
    EXPECT_EQ(r->completed_iterations, static_cast<int64_t>(qid.size()))
        << context;
    if (threads == 1) {
      serial = r.value();
      continue;
    }
    EXPECT_EQ(r->diverse_nodes, serial.diverse_nodes) << context;
    EXPECT_EQ(r->stats.nodes_checked, serial.stats.nodes_checked) << context;
    EXPECT_EQ(r->stats.nodes_marked, serial.stats.nodes_marked) << context;
    EXPECT_EQ(r->stats.table_scans, serial.stats.table_scans) << context;
    EXPECT_EQ(r->stats.rollups, serial.stats.rollups) << context;
    EXPECT_EQ(r->stats.freq_groups_built, serial.stats.freq_groups_built)
        << context;
    EXPECT_EQ(r->stats.candidate_nodes, serial.stats.candidate_nodes)
        << context;
  }
  return serial;
}

class LDiversityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<PatientsDataset> ds = MakePatientsDataset();
    ASSERT_TRUE(ds.ok());
    table_ = std::move(ds->table);
    qid_ = std::move(ds->qid);
    disease_col_ =
        static_cast<size_t>(table_.schema().FindColumn("Disease"));
    Result<DiversityKey> key =
        DiversityKey::Create(table_, qid_, Config(1, 1, 0, "Disease"));
    ASSERT_TRUE(key.ok()) << key.status().ToString();
    key_ = std::move(key).value();
  }

  Table table_;
  QuasiIdentifier qid_;
  size_t disease_col_ = 0;
  DiversityKey key_;
};

// ---------------------------------------------------------------------------
// Key-QID frequency sets: scan, rollup, violation count
// ---------------------------------------------------------------------------

TEST_F(LDiversityTest, ComputeTracksDistinctSensitive) {
  // Group by <S1, Z0>: three classes of 2 tuples; all diseases distinct, so
  // every class has 2 distinct sensitive values, in 6 (class, disease)
  // groups.
  const SubsetNode node({1, 2}, {1, 0});
  FrequencySet fs = key_.Compute(table_, node).value();
  EXPECT_EQ(fs.node(), SubsetNode({1, 2, 3}, {1, 0, 0}));
  EXPECT_EQ(fs.NumGroups(), 6u);
  EXPECT_EQ(fs.TotalCount(), 6);
  const Classes classes = ClassesOf(fs);
  EXPECT_EQ(classes, OracleClasses(table_, qid_, node, disease_col_));
  ASSERT_EQ(classes.size(), 3u);
  for (const auto& [codes, tuples, distinct] : classes) {
    (void)codes;
    EXPECT_EQ(tuples, 2);
    EXPECT_EQ(distinct, 2);
  }
  for (int64_t k = 1; k <= 3; ++k) {
    for (int64_t l = 1; l <= 3; ++l) {
      EXPECT_EQ(fs.TuplesViolatingDiversity(k, l),
                TuplesViolatingByOracle(table_, qid_, node, disease_col_, k,
                                        l))
          << "k=" << k << " l=" << l;
    }
  }
  EXPECT_EQ(fs.TuplesViolatingDiversity(2, 2), 0);
  EXPECT_EQ(fs.TuplesViolatingDiversity(2, 3), 6);
  EXPECT_EQ(fs.TuplesViolatingDiversity(3, 2), 6);
}

TEST_F(LDiversityTest, RollupUnionsSensitiveSets) {
  FrequencySet base =
      key_.Compute(table_, SubsetNode({1, 2}, {0, 0})).value();
  const SubsetNode top({1, 2}, {1, 2});
  FrequencySet rolled = base.RollupTo(key_.KeyNode(top), key_.qid());
  // Fully generalized over Sex and Zip: one class, 6 tuples, 6 diseases.
  const Classes classes = ClassesOf(rolled);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(std::get<1>(classes[0]), 6);
  EXPECT_EQ(std::get<2>(classes[0]), 6);
  EXPECT_EQ(classes, OracleClasses(table_, qid_, top, disease_col_));
  EXPECT_EQ(rolled.TuplesViolatingDiversity(1, 6), 0);
  EXPECT_EQ(rolled.TuplesViolatingDiversity(1, 7), 6);
}

TEST_F(LDiversityTest, RollupMatchesDirectComputation) {
  FrequencySet base =
      key_.Compute(table_, SubsetNode({0, 1, 2}, {0, 0, 0})).value();
  for (int32_t b = 0; b <= 1; ++b) {
    for (int32_t s = 0; s <= 1; ++s) {
      for (int32_t z = 0; z <= 2; ++z) {
        SubsetNode target({0, 1, 2}, {b, s, z});
        FrequencySet rolled = base.RollupTo(key_.KeyNode(target), key_.qid());
        FrequencySet direct = key_.Compute(table_, target).value();
        EXPECT_EQ(GroupsOf(rolled), GroupsOf(direct)) << target.ToString();
        EXPECT_EQ(ClassesOf(rolled),
                  OracleClasses(table_, qid_, target, disease_col_))
            << target.ToString();
        for (int64_t k = 1; k <= 3; ++k) {
          for (int64_t l = 1; l <= 3; ++l) {
            EXPECT_EQ(rolled.TuplesViolatingDiversity(k, l),
                      TuplesViolatingByOracle(table_, qid_, target,
                                              disease_col_, k, l))
                << target.ToString() << " k=" << k << " l=" << l;
          }
        }
      }
    }
  }
}

TEST_F(LDiversityTest, SuppressionBudget) {
  // <S0, Z0>: classes of 1, 1, 2 and 2 tuples; the 2-tuple classes have 2
  // distinct diseases each, so at l = 2 only the two singletons violate.
  const SubsetNode node({1, 2}, {0, 0});
  EXPECT_EQ(key_.Compute(table_, node)->TuplesViolatingDiversity(1, 2), 2);
  EXPECT_EQ(TuplesViolatingByOracle(table_, qid_, node, disease_col_, 1, 2),
            2);
  // As the full-QID <B1, S0, Z0> it is diverse within a budget of 2 tuples
  // and not without one.
  const std::string full = SubsetNode::Full({1, 0, 0}).ToString();
  PartialResult<LDiversityResult> strict =
      RunLDiversityIncognito(table_, qid_, Config(1, 2, 0, "Disease"));
  PartialResult<LDiversityResult> budget =
      RunLDiversityIncognito(table_, qid_, Config(1, 2, 2, "Disease"));
  ASSERT_TRUE(strict.ok() && budget.ok());
  EXPECT_EQ(NodeSet(strict->diverse_nodes).count(full), 0u);
  EXPECT_EQ(NodeSet(budget->diverse_nodes).count(full), 1u);
  EXPECT_EQ(NodeSet(budget->diverse_nodes),
            DiverseNodesByOracle(table_, qid_, disease_col_, 1, 2, 2));
}

// ---------------------------------------------------------------------------
// RunLDiversityIncognito
// ---------------------------------------------------------------------------

TEST_F(LDiversityTest, MatchesBruteForce) {
  PartialResult<LDiversityResult> r =
      RunLDiversityIncognito(table_, qid_, Config(2, 2, 0, "Disease"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::set<std::string> oracle =
      DiverseNodesByOracle(table_, qid_, disease_col_, 2, 2, 0);
  EXPECT_EQ(NodeSet(r->diverse_nodes), oracle);
  EXPECT_FALSE(oracle.empty());
}

TEST_F(LDiversityTest, EveryThreadCountMatchesTheOracle) {
  for (int64_t k : {1, 2, 3}) {
    for (int64_t l : {1, 2, 3, 6, 7}) {
      for (int64_t suppress : {0, 2}) {
        ExpectOracleAtEveryThreadCount(table_, qid_,
                                       Config(k, l, suppress, "Disease"));
      }
    }
  }
}

TEST_F(LDiversityTest, CountersKeepTheLevelWiseWalksValues) {
  // The node counts of the level-wise walk this search replaced, which
  // walked every subset of one size as one graph. Scans are now batched
  // (one per subset front or level) and groups are (class, disease) pairs.
  LDiversityResult r = ExpectOracleAtEveryThreadCount(
      table_, qid_, Config(2, 2, 0, "Disease"));
  EXPECT_EQ(r.diverse_nodes.size(), 5u);
  EXPECT_EQ(r.stats.nodes_checked, 17);
  EXPECT_EQ(r.stats.nodes_marked, 11);
  EXPECT_EQ(r.stats.rollups, 8);
  EXPECT_EQ(r.stats.candidate_nodes, 28);
  EXPECT_EQ(r.stats.table_scans, 7);
  EXPECT_EQ(r.stats.freq_groups_built, 102);
}

TEST_F(LDiversityTest, DiversitySubsetOfAnonymity) {
  // Every (k=2, l=2)-diverse node is 2-anonymous (diversity only adds a
  // constraint).
  PartialResult<LDiversityResult> lr =
      RunLDiversityIncognito(table_, qid_, Config(2, 2, 0, "Disease"));
  ASSERT_TRUE(lr.ok());
  AnonymizationConfig kconfig;
  kconfig.k = 2;
  PartialResult<IncognitoResult> kr = RunIncognito(table_, qid_, kconfig);
  ASSERT_TRUE(kr.ok());
  std::set<std::string> anonymous = NodeSet(kr->anonymous_nodes);
  for (const SubsetNode& node : lr->diverse_nodes) {
    EXPECT_TRUE(anonymous.count(node.ToString()) > 0) << node.ToString();
  }
}

TEST_F(LDiversityTest, HighLOnlyTopOrNothing) {
  LDiversityConfig config;
  config.l = 6;  // needs all six diseases in every group
  config.sensitive_attribute = "Disease";
  PartialResult<LDiversityResult> r =
      RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->diverse_nodes.size(), 1u);
  EXPECT_EQ(r->diverse_nodes[0].ToString(), "<d0:1, d1:1, d2:2>");

  config.l = 7;  // impossible
  r = RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->diverse_nodes.empty());
}

TEST_F(LDiversityTest, LEqualsOneReducesToKAnonymity) {
  PartialResult<LDiversityResult> lr =
      RunLDiversityIncognito(table_, qid_, Config(2, 1, 0, "Disease"));
  ASSERT_TRUE(lr.ok());
  AnonymizationConfig kconfig;
  kconfig.k = 2;
  PartialResult<IncognitoResult> kr = RunIncognito(table_, qid_, kconfig);
  ASSERT_TRUE(kr.ok());
  EXPECT_EQ(NodeSet(lr->diverse_nodes), NodeSet(kr->anonymous_nodes));
}

TEST_F(LDiversityTest, RejectsBadConfig) {
  LDiversityConfig config;
  config.sensitive_attribute = "Disease";
  config.k = 0;
  EXPECT_FALSE(RunLDiversityIncognito(table_, qid_, config).ok());
  config.k = 2;
  config.l = 0;
  EXPECT_FALSE(RunLDiversityIncognito(table_, qid_, config).ok());
  config.l = 2;
  config.max_suppressed = -1;
  EXPECT_EQ(RunLDiversityIncognito(table_, qid_, config).status().code(),
            StatusCode::kInvalidArgument);
  config.max_suppressed = 0;
  EXPECT_EQ(
      RunLDiversityIncognito(table_, QuasiIdentifier(), config).status().code(),
      StatusCode::kInvalidArgument);
  config.sensitive_attribute = "NoSuchColumn";
  EXPECT_FALSE(RunLDiversityIncognito(table_, qid_, config).ok());
  // Sensitive attribute inside the QID is rejected.
  config.sensitive_attribute = "Sex";
  EXPECT_EQ(RunLDiversityIncognito(table_, qid_, config).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DiversityKey::Create(table_, qid_, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LDiversityTest, DiverseRecoderPublishesValidView) {
  const LDiversityConfig config = Config(2, 2, 0, "Disease");
  PartialResult<LDiversityResult> r =
      RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->diverse_nodes.empty());
  for (const SubsetNode& node : r->diverse_nodes) {
    Result<RecodeResult> view =
        ApplyDiverseGeneralization(table_, qid_, node, config);
    ASSERT_TRUE(view.ok()) << node.ToString();
    EXPECT_EQ(view->suppressed_tuples, 0);  // search used zero budget
    EXPECT_EQ(view->view.num_rows(), table_.num_rows());
    EXPECT_EQ(
        TuplesViolatingByOracle(table_, qid_, node, disease_col_, 2, 2), 0);
    // Every class of the released view, grouped by its published labels,
    // satisfies both bounds.
    std::map<std::vector<std::string>, std::set<std::string>> diseases;
    std::map<std::vector<std::string>, int64_t> tuples;
    for (size_t row = 0; row < view->view.num_rows(); ++row) {
      std::vector<std::string> labels;
      for (size_t i = 0; i < qid_.size(); ++i) {
        labels.push_back(view->view.GetValue(row, qid_.column(i)).ToString());
      }
      ++tuples[labels];
      diseases[labels].insert(
          view->view.GetValue(row, disease_col_).ToString());
    }
    for (const auto& [labels, count] : tuples) {
      EXPECT_GE(count, config.k) << node.ToString();
      EXPECT_GE(static_cast<int64_t>(diseases[labels].size()), config.l)
          << node.ToString();
    }
  }
}

TEST_F(LDiversityTest, DiverseRecoderSuppressesWithinBudget) {
  // <S0, Z0> (as full-QID <B1,S0,Z0>) has two singleton groups.
  Result<RecodeResult> view = ApplyDiverseGeneralization(
      table_, qid_, SubsetNode::Full({1, 0, 0}), Config(2, 2, 2, "Disease"));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->suppressed_tuples, 2);
  EXPECT_EQ(view->view.num_rows(), 4u);
}

TEST_F(LDiversityTest, DiverseRecoderRejectsOverBudget) {
  Result<RecodeResult> view = ApplyDiverseGeneralization(
      table_, qid_, SubsetNode::Full({0, 0, 0}), Config(2, 2, 0, "Disease"));
  EXPECT_EQ(view.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LDiversityTest, DiverseRecoderRejectsLevelsOutsideTheHierarchy) {
  const LDiversityConfig config = Config(2, 2, 2, "Disease");
  const int32_t above =
      static_cast<int32_t>(qid_.hierarchy(0).height()) + 1;
  for (const SubsetNode& node :
       {SubsetNode::Full({above, 0, 0}), SubsetNode::Full({0, -1, 0})}) {
    EXPECT_EQ(ApplyDiverseGeneralization(table_, qid_, node, config)
                  .status()
                  .code(),
              StatusCode::kOutOfRange)
        << node.ToString();
  }
}

TEST(LDiversityRandomTest, MonotoneUnderGeneralization) {
  // The property that justifies reusing Incognito's search: if a node is
  // (k,l)-diverse, so are its direct generalizations. The key-QID set's
  // count must agree with the oracle at every node.
  Rng rng(4242);
  for (int trial = 0; trial < 5; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 3;
    opts.num_rows = 60;
    RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    // Use attr2 as sensitive: rebuild a 2-attribute QID from the first two.
    QuasiIdentifier qid2 = ds.qid.Prefix(2);
    size_t sensitive_col = ds.qid.column(2);
    DiversityKey key =
        DiversityKey::Create(ds.table, qid2, Config(2, 2, 0, "attr2"))
            .value();
    GeneralizationLattice lattice(qid2.MaxLevels());
    for (const LevelVector& v : lattice.AllNodesByHeight()) {
      SubsetNode node = SubsetNode::Full(v);
      const int64_t violating =
          TuplesViolatingByOracle(ds.table, qid2, node, sensitive_col, 2, 2);
      EXPECT_EQ(key.Compute(ds.table, node)->TuplesViolatingDiversity(2, 2),
                violating)
          << node.ToString();
      if (violating != 0) continue;
      for (const LevelVector& g : lattice.DirectGeneralizations(v)) {
        EXPECT_EQ(TuplesViolatingByOracle(ds.table, qid2, SubsetNode::Full(g),
                                          sensitive_col, 2, 2),
                  0);
      }
    }
  }
}

TEST(LDiversityRandomTest, EveryThreadCountMatchesTheOracle) {
  Rng rng(777);
  for (int trial = 0; trial < 12; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 4;
    opts.num_rows = 80;
    RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    ExpectOracleAtEveryThreadCount(
        ds.table, ds.qid.Prefix(3),
        Config(1 + trial % 3, 1 + trial % 4, trial % 5, "attr3"));
  }
}

TEST(LDiversityAdultsTest, SliceMatchesTheOracleAtEveryThreadCount) {
  // 4,000 Adults rows, QID of the first five attributes, Occupation as the
  // sensitive column.
  AdultsOptions options;
  options.num_rows = 4000;
  Result<SyntheticDataset> adults = MakeAdultsDataset(options);
  ASSERT_TRUE(adults.ok());
  const QuasiIdentifier qid = adults->qid.Prefix(5);
  const std::string occupation = adults->qid.name(7);
  for (int64_t k : {2, 5}) {
    LDiversityResult r = ExpectOracleAtEveryThreadCount(
        adults->table, qid, Config(k, 2, 0, occupation));
    EXPECT_FALSE(r.diverse_nodes.empty());
  }
}

TEST(LDiversityAdultsTest, FullTableKeepsTheLevelWiseWalksCounters) {
  // The daemon benchmark's ℓ-diversity job: 45,222 rows, QID 5, sensitive
  // Occupation, k = 10, ℓ = 2, at 4 threads. The node counts are the
  // replaced level-wise walk's; it made 78 scans over 2,829 groups.
  Result<SyntheticDataset> adults = MakeAdultsDataset();
  ASSERT_TRUE(adults.ok());
  PartialResult<LDiversityResult> r = RunLDiversityIncognito(
      adults->table, adults->qid.Prefix(5),
      Config(10, 2, 0, adults->qid.name(7)), RunContext::WithThreads(4));
  ASSERT_TRUE(r.complete()) << r.status().ToString();
  EXPECT_EQ(r->diverse_nodes.size(), 31u);
  EXPECT_EQ(r->stats.nodes_checked, 111);
  EXPECT_EQ(r->stats.nodes_marked, 218);
  EXPECT_EQ(r->stats.rollups, 33);
  EXPECT_EQ(r->stats.candidate_nodes, 329);
  EXPECT_EQ(r->stats.table_scans, 31);
  EXPECT_EQ(r->stats.freq_groups_built, 35059);
}

TEST(LDiversityWideKeyTest, VectorKeysAndPackedControlMatchTheOracle) {
  // Six 4,096-value attributes (12 bits each) with a5 as the sensitive
  // column: a QID of four keys 60 bits (packed), one of five 72 bits (the
  // vector-key path).
  RandomDataset data = testing_util::MakeWideFallbackDataset(300);
  const size_t sensitive_col = data.qid.column(5);
  for (size_t width : {4u, 5u}) {
    const QuasiIdentifier qid = data.qid.Prefix(width);
    const LDiversityConfig config = Config(2, 2, 0, "a5");
    DiversityKey key = DiversityKey::Create(data.table, qid, config).value();
    const SubsetNode bottom =
        SubsetNode::Full(std::vector<int32_t>(width, 0));
    EXPECT_EQ(KeyBits(key.qid(), key.KeyNode(bottom)), width * 12 + 12);
    FrequencySet base = key.Compute(data.table, bottom).value();
    EXPECT_EQ(ClassesOf(base),
              OracleClasses(data.table, qid, bottom, sensitive_col));
    for (int64_t l = 1; l <= 3; ++l) {
      EXPECT_EQ(base.TuplesViolatingDiversity(2, l),
                TuplesViolatingByOracle(data.table, qid, bottom,
                                        sensitive_col, 2, l));
    }
    for (int64_t l : {1, 2, 3}) {
      ExpectOracleAtEveryThreadCount(data.table, qid,
                                     Config(2, l, 0, "a5"));
    }
  }
}

/// 40 random rows over three attributes, plus a column "S" that holds one
/// value in every row.
RandomDataset MakeSingleValuedSensitiveDataset() {
  Rng rng(99);
  testing_util::RandomDatasetOptions opts;
  opts.num_attrs = 3;
  opts.num_rows = 40;
  RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
  Table table{Schema({{"attr0", DataType::kString},
                      {"attr1", DataType::kString},
                      {"attr2", DataType::kString},
                      {"S", DataType::kString}})};
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < 3; ++i) {
    const Dictionary& dict = ds.table.dictionary(i);
    for (size_t c = 0; c < dict.size(); ++c) {
      table.mutable_dictionary(i).GetOrInsert(
          dict.value(static_cast<int32_t>(c)));
    }
    hierarchies.emplace_back(ds.qid.name(i), ds.qid.hierarchy(i));
  }
  table.mutable_dictionary(3).GetOrInsert(Value("same"));
  for (size_t r = 0; r < ds.table.num_rows(); ++r) {
    table.AppendRowCodes({ds.table.GetCode(r, 0), ds.table.GetCode(r, 1),
                          ds.table.GetCode(r, 2), 0});
  }
  RandomDataset out;
  out.qid = QuasiIdentifier::Create(table, std::move(hierarchies)).value();
  out.table = std::move(table);
  return out;
}

TEST(LDiversityEdgeTest, SingleValuedSensitiveColumnHasAZeroBitField) {
  RandomDataset data = MakeSingleValuedSensitiveDataset();
  DiversityKey key =
      DiversityKey::Create(data.table, data.qid, Config(2, 1, 0, "S"))
          .value();
  const SubsetNode bottom = SubsetNode::Full({0, 0, 0});
  EXPECT_EQ(KeyBits(key.qid(), key.KeyNode(bottom)),
            KeyBits(data.qid, bottom));
  // ℓ = 1 is k-anonymity; ℓ = 2 fails every class.
  for (int64_t suppress : {0, 5}) {
    LDiversityResult plain = ExpectOracleAtEveryThreadCount(
        data.table, data.qid, Config(2, 1, suppress, "S"));
    AnonymizationConfig kconfig;
    kconfig.k = 2;
    kconfig.max_suppressed = suppress;
    PartialResult<IncognitoResult> kr =
        RunIncognito(data.table, data.qid, kconfig);
    ASSERT_TRUE(kr.ok());
    EXPECT_EQ(NodeSet(plain.diverse_nodes), NodeSet(kr->anonymous_nodes));
    LDiversityResult none = ExpectOracleAtEveryThreadCount(
        data.table, data.qid, Config(2, 2, suppress, "S"));
    EXPECT_TRUE(none.diverse_nodes.empty());
  }
}

TEST(LDiversityEdgeTest, ThirtyThreeAttributesAreRejectedBeforeAnyWork) {
  RandomDataset data = testing_util::MakeTwoRowDataset(34);
  ExecutionGovernor governor;
  PartialResult<LDiversityResult> r =
      RunLDiversityIncognito(data.table, data.qid.Prefix(33),
                             Config(1, 2, 0, "a33"),
                             RunContext::Governed(governor, 4));
  ASSERT_TRUE(r.hard_error());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Not even the subset task table was charged.
  EXPECT_EQ(governor.memory().peak(), 0);
  EXPECT_EQ(governor.trips().checks, 0);
}

}  // namespace
}  // namespace incognito
