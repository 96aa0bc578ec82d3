// Also serves as the umbrella-header compile test: including
// incognito.h must pull in the entire public API self-containedly.
#include "incognito.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace incognito {
namespace {

TEST(DotExportTest, CandidateGraphDot) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  CandidateGraph c1 = testing_util::MakeSingleAttributeGraph(ds->qid);
  std::string dot = CandidateGraphToDot(c1, &ds->qid);
  EXPECT_NE(dot.find("digraph candidates"), std::string::npos);
  EXPECT_NE(dot.find("<Zipcode:2>"), std::string::npos);
  // 7 nodes, 4 edges.
  size_t arrows = 0;
  for (size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 4u);
}

TEST(DotExportTest, HighlightMarksSurvivors) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> r = RunIncognito(ds->table, ds->qid, config);
  ASSERT_TRUE(r.ok());
  std::set<std::string> survivors;
  for (const SubsetNode& n : r->anonymous_nodes) {
    survivors.insert(n.ToString());
  }
  GeneralizationLattice lattice(ds->qid.MaxLevels());
  std::string dot = LatticeToDot(lattice, &ds->qid, survivors);
  EXPECT_NE(dot.find("digraph lattice"), std::string::npos);
  // Five filled nodes — the five 2-anonymous generalizations.
  size_t filled = 0;
  for (size_t pos = dot.find("fillcolor"); pos != std::string::npos;
       pos = dot.find("fillcolor", pos + 1)) {
    ++filled;
  }
  EXPECT_EQ(filled, 5u);
}

TEST(DotExportTest, LatticeDotHasRankGroups) {
  GeneralizationLattice lattice({1, 2});
  std::string dot = LatticeToDot(lattice);
  EXPECT_NE(dot.find("rank=same"), std::string::npos);
  // 6 nodes across 4 heights (0..3).
  size_t ranks = 0;
  for (size_t pos = dot.find("rank=same"); pos != std::string::npos;
       pos = dot.find("rank=same", pos + 1)) {
    ++ranks;
  }
  EXPECT_EQ(ranks, 4u);
}

TEST(UmbrellaHeaderTest, ApiIsReachable) {
  // Touch a symbol from each major module to prove the umbrella header
  // exposes the whole API.
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Value(int64_t{1}).int64(), 1);
  EXPECT_EQ(SubsetNode::Full({1, 1}).Height(), 2);
  EXPECT_TRUE(KeyCodec::Create({2, 2}).packed());
  EXPECT_STREQ(IncognitoVariantName(IncognitoVariant::kBasic),
               "Basic Incognito");
}

}  // namespace
}  // namespace incognito
