#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/incognito.h"
#include "core/minimality.h"
#include "data/patients.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::NodeSet;

std::vector<SubsetNode> PatientsResultNodes() {
  // The five 2-anonymous generalizations of the Patients table (Fig. 7(a)).
  return {
      SubsetNode::Full({1, 1, 0}), SubsetNode::Full({1, 1, 1}),
      SubsetNode::Full({1, 1, 2}), SubsetNode::Full({1, 0, 2}),
      SubsetNode::Full({0, 1, 2}),
  };
}

TEST(MinimalByHeightTest, PicksUniqueMinimum) {
  std::vector<SubsetNode> minimal = MinimalByHeight(PatientsResultNodes());
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0].ToString(), "<d0:1, d1:1, d2:0>");
}

TEST(MinimalByHeightTest, ReturnsAllTies) {
  std::vector<SubsetNode> nodes = {SubsetNode::Full({1, 0}),
                                   SubsetNode::Full({0, 1}),
                                   SubsetNode::Full({1, 1})};
  std::vector<SubsetNode> minimal = MinimalByHeight(nodes);
  EXPECT_EQ(minimal.size(), 2u);
}

TEST(MinimalByHeightTest, EmptyInput) {
  EXPECT_TRUE(MinimalByHeight({}).empty());
}

TEST(MinimalByWeightTest, WeightsSteerTheChoice) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  std::vector<SubsetNode> nodes = PatientsResultNodes();
  // §2.1's example: "it might be more important in some applications that
  // the Sex attribute be released intact, even if this means additional
  // generalization of Zipcode". Weight Sex heavily: the best node keeps
  // Sex at level 0 — that is <B1, S0, Z2>.
  Result<std::vector<SubsetNode>> minimal =
      MinimalByWeight(nodes, {1.0, 100.0, 1.0}, ds->qid);
  ASSERT_TRUE(minimal.ok());
  ASSERT_EQ(minimal->size(), 1u);
  EXPECT_EQ((*minimal)[0].ToString(), "<d0:1, d1:0, d2:2>");

  // Weighting Birthdate instead favors <B0, S1, Z2>.
  minimal = MinimalByWeight(nodes, {100.0, 1.0, 1.0}, ds->qid);
  ASSERT_TRUE(minimal.ok());
  ASSERT_EQ(minimal->size(), 1u);
  EXPECT_EQ((*minimal)[0].ToString(), "<d0:0, d1:1, d2:2>");
}

TEST(MinimalByWeightTest, UniformWeightsMatchHeightOrdering) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  // With uniform weights the cost is monotone in normalized height, so the
  // winner must also be a ParetoMinimal node.
  Result<std::vector<SubsetNode>> minimal =
      MinimalByWeight(PatientsResultNodes(), {1, 1, 1}, ds->qid);
  ASSERT_TRUE(minimal.ok());
  ASSERT_FALSE(minimal->empty());
  std::set<std::string> pareto = NodeSet(ParetoMinimal(PatientsResultNodes()));
  for (const SubsetNode& n : *minimal) {
    EXPECT_TRUE(pareto.count(n.ToString()) > 0);
  }
}

TEST(MinimalByWeightTest, RejectsBadArity) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  EXPECT_FALSE(MinimalByWeight(PatientsResultNodes(), {1.0}, ds->qid).ok());
  // Nodes over a partial QID are rejected.
  EXPECT_FALSE(
      MinimalByWeight({SubsetNode({0}, {1})}, {1, 1, 1}, ds->qid).ok());
}

TEST(MinimalByWeightTest, RejectsNonFiniteWeightsNamingTheAttribute) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  // A NaN cost compares false both ways, so it once left no node chosen.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Result<std::vector<SubsetNode>> minimal =
        MinimalByWeight(PatientsResultNodes(), {1.0, bad, 1.0}, ds->qid);
    ASSERT_EQ(minimal.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(minimal.status().message().find(ds->qid.name(1)),
              std::string::npos)
        << minimal.status().ToString();
  }
}

TEST(ParetoMinimalTest, PatientsAntichain) {
  // <B1,S1,Z1> and <B1,S1,Z2> are generalizations of <B1,S1,Z0>; the
  // antichain is {<B1,S1,Z0>, <B1,S0,Z2>, <B0,S1,Z2>} — precisely the
  // roots of Fig. 7(a).
  std::set<std::string> pareto = NodeSet(ParetoMinimal(PatientsResultNodes()));
  EXPECT_EQ(pareto,
            (std::set<std::string>{"<d0:1, d1:1, d2:0>", "<d0:1, d1:0, d2:2>",
                                   "<d0:0, d1:1, d2:2>"}));
}

TEST(ParetoMinimalTest, SingleNode) {
  std::vector<SubsetNode> one = {SubsetNode::Full({1, 1})};
  EXPECT_EQ(ParetoMinimal(one).size(), 1u);
}

TEST(ParetoMinimalTest, IncomparableNodesAllKept) {
  std::vector<SubsetNode> nodes = {SubsetNode::Full({2, 0}),
                                   SubsetNode::Full({0, 2}),
                                   SubsetNode::Full({1, 1})};
  EXPECT_EQ(ParetoMinimal(nodes).size(), 3u);
}

TEST(ParetoMinimalTest, EveryResultIsGeneralizationOfSomeMinimal) {
  // Property on the real algorithm output.
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> r = RunIncognito(ds->table, ds->qid, config);
  ASSERT_TRUE(r.ok());
  std::vector<SubsetNode> pareto = ParetoMinimal(r->anonymous_nodes);
  for (const SubsetNode& n : r->anonymous_nodes) {
    bool covered = false;
    for (const SubsetNode& m : pareto) {
      if (m.IsGeneralizedBy(n)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << n.ToString();
  }
}

}  // namespace
}  // namespace incognito
