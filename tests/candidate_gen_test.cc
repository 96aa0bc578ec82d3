// Tests for the search's candidate generation (src/lattice/candidate_gen.h):
// the single-dimension chains that seed the subset DAG, and
// GenerateSubsetGraph, whose union over every (i+1)-attribute subset must
// equal the paper's level-wise GraphGeneration (§3.1.2) over all of S_i —
// transcribed as testing_util::GenerateNextGraph — node for node, edge for
// edge, with the same summed counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/patients.h"
#include "lattice/candidate_gen.h"
#include "lattice/lattice.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::GenerateNextGraph;
using testing_util::MakeSingleAttributeGraph;
using testing_util::NodeSet;

// Dimension indices for the Patients quasi-identifier.
constexpr int32_t kB = 0;  // Birthdate
constexpr int32_t kS = 1;  // Sex
constexpr int32_t kZ = 2;  // Zipcode

/// The attribute subset of a node's pair list, as dimension indices.
std::vector<int32_t> DimsOf(const NodeRow& row) {
  std::vector<int32_t> dims;
  for (const DimIndexPair& pair : row.pairs) dims.push_back(pair.dim);
  return dims;
}

/// What the search generates from the survivor graph S_i of an n-attribute
/// QID: for every (i+1)-attribute subset D, GenerateSubsetGraph over the
/// survivor graphs of D's immediate sub-subsets (S_i's nodes over each),
/// the results appended into one graph. `stats` sums each call's counters.
CandidateGraph SubsetGraphUnion(const CandidateGraph& survivors, size_t n,
                                GraphGenStats* stats = nullptr) {
  CandidateGraph out;
  GraphGenStats sum;
  const size_t i = survivors.num_nodes() > 0 ? survivors.subset_size() : 1;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (static_cast<size_t>(__builtin_popcount(mask)) != i + 1) continue;
    std::vector<int32_t> dims;
    for (size_t d = 0; d < n; ++d) {
      if ((mask >> d) & 1u) dims.push_back(static_cast<int32_t>(d));
    }
    // parents[j]: S_i restricted to D minus its j-th dimension.
    std::vector<CandidateGraph> parent_graphs;
    for (size_t j = 0; j < dims.size(); ++j) {
      std::vector<int32_t> sub = dims;
      sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(j));
      std::vector<bool> keep(survivors.num_nodes());
      for (const NodeRow& row : survivors.nodes()) {
        keep[static_cast<size_t>(row.id)] = DimsOf(row) == sub;
      }
      parent_graphs.push_back(survivors.InducedSubgraph(keep));
    }
    std::vector<const CandidateGraph*> parents;
    for (const CandidateGraph& g : parent_graphs) parents.push_back(&g);
    GraphGenStats step;
    CandidateGraph graph = GenerateSubsetGraph(parents, &step);
    sum.joined += step.joined;
    sum.pruned += step.pruned;
    sum.candidate_edges += step.candidate_edges;
    sum.implied_removed += step.implied_removed;
    const auto offset = static_cast<int64_t>(out.num_nodes());
    for (const NodeRow& row : graph.nodes()) out.AddNode(row);
    for (const auto& [start, end] : graph.edges()) {
      out.AddEdge(start + offset, end + offset);
    }
  }
  out.BuildAdjacency();
  if (stats != nullptr) *stats = sum;
  return out;
}

/// A graph's nodes as pair lists and its edges as pair-list pairs: what
/// stays when node ids are forgotten.
struct GraphShape {
  std::set<std::string> nodes;
  std::set<std::pair<std::string, std::string>> edges;
  bool operator==(const GraphShape&) const = default;
};

GraphShape ShapeOf(const CandidateGraph& graph) {
  GraphShape shape;
  auto name = [&](int64_t id) {
    return graph.node(id).ToSubsetNode().ToString();
  };
  for (const NodeRow& row : graph.nodes()) {
    EXPECT_TRUE(shape.nodes.insert(name(row.id)).second) << name(row.id);
  }
  for (const auto& [start, end] : graph.edges()) {
    shape.edges.insert({name(start), name(end)});
  }
  return shape;
}

void ExpectSameStats(const GraphGenStats& got, const GraphGenStats& want,
                     const std::string& context) {
  EXPECT_EQ(got.joined, want.joined) << context;
  EXPECT_EQ(got.pruned, want.pruned) << context;
  EXPECT_EQ(got.candidate_edges, want.candidate_edges) << context;
  EXPECT_EQ(got.implied_removed, want.implied_removed) << context;
}

/// Checks the search's generator against the level-wise oracle on S_i and
/// returns the oracle's C_{i+1}, with its counters in `stats`.
CandidateGraph ExpectUnionMatchesOracle(const CandidateGraph& survivors,
                                        size_t n, const std::string& context,
                                        GraphGenStats* stats = nullptr) {
  GraphGenStats want;
  CandidateGraph oracle = GenerateNextGraph(survivors, &want);
  GraphGenStats got;
  CandidateGraph generated = SubsetGraphUnion(survivors, n, &got);
  EXPECT_TRUE(ShapeOf(generated) == ShapeOf(oracle)) << context;
  ExpectSameStats(got, want, context);
  if (stats != nullptr) *stats = want;
  return oracle;
}

TEST(SingleDimensionChainTest, PatientsChains) {
  Result<PatientsDataset> patients = MakePatientsDataset();
  ASSERT_TRUE(patients.ok()) << patients.status().ToString();
  // Heights: Birthdate 1, Sex 1, Zipcode 2.
  for (size_t d : {0u, 1u, 2u}) {
    const size_t height = patients->qid.hierarchy(d).height();
    CandidateGraph chain = MakeSingleDimensionChain(patients->qid, d);
    EXPECT_EQ(chain.num_nodes(), height + 1);
    EXPECT_EQ(chain.num_edges(), height);
    ASSERT_EQ(chain.Roots().size(), 1u);
    EXPECT_EQ(chain.node(chain.Roots().front()).Height(), 0);
  }
}

/// Builds the union of the three surviving 2-attribute graphs from the
/// final steps of the paper's Fig. 5 (Example 3.1 at k = 2).
CandidateGraph MakeFig5Survivors() {
  CandidateGraph g;
  auto add = [&g](int32_t d1, int32_t l1, int32_t d2, int32_t l2) {
    NodeRow row;
    row.pairs = {{d1, l1}, {d2, l2}};
    return g.AddNode(std::move(row));
  };
  // Fig. 5(c): S_{B,S} = {<B1,S0>, <B0,S1>, <B1,S1>}.
  int64_t b1s0 = add(kB, 1, kS, 0);
  int64_t b0s1 = add(kB, 0, kS, 1);
  int64_t b1s1 = add(kB, 1, kS, 1);
  g.AddEdge(b1s0, b1s1);
  g.AddEdge(b0s1, b1s1);
  // Fig. 5(b): S_{B,Z} = {<B1,Z0>, <B1,Z1>, <B0,Z2>, <B1,Z2>}.
  int64_t b1z0 = add(kB, 1, kZ, 0);
  int64_t b1z1 = add(kB, 1, kZ, 1);
  int64_t b0z2 = add(kB, 0, kZ, 2);
  int64_t b1z2 = add(kB, 1, kZ, 2);
  g.AddEdge(b1z0, b1z1);
  g.AddEdge(b1z1, b1z2);
  g.AddEdge(b0z2, b1z2);
  // Fig. 5(a): S_{S,Z} = {<S1,Z0>, <S1,Z1>, <S0,Z2>, <S1,Z2>}.
  int64_t s1z0 = add(kS, 1, kZ, 0);
  int64_t s1z1 = add(kS, 1, kZ, 1);
  int64_t s0z2 = add(kS, 0, kZ, 2);
  int64_t s1z2 = add(kS, 1, kZ, 2);
  g.AddEdge(s1z0, s1z1);
  g.AddEdge(s1z1, s1z2);
  g.AddEdge(s0z2, s1z2);
  g.BuildAdjacency();
  return g;
}

TEST(SubsetGraphTest, ReproducesFig7aNodes) {
  GraphGenStats stats;
  CandidateGraph c3 = SubsetGraphUnion(MakeFig5Survivors(), 3, &stats);

  std::vector<SubsetNode> nodes;
  for (const NodeRow& row : c3.nodes()) nodes.push_back(row.ToSubsetNode());
  // Fig. 7(a): exactly {<B1,S1,Z0>, <B1,S1,Z1>, <B1,S1,Z2>, <B1,S0,Z2>,
  // <B0,S1,Z2>}.
  EXPECT_EQ(NodeSet(nodes),
            (std::set<std::string>{"<d0:1, d1:1, d2:0>", "<d0:1, d1:1, d2:1>",
                                   "<d0:1, d1:1, d2:2>", "<d0:1, d1:0, d2:2>",
                                   "<d0:0, d1:1, d2:2>"}));
  // The join produced 7 candidates; 2 were pruned by the subset check
  // (<B1,S0,Z0> and <B1,S0,Z1> lack <S0,Z0>/<S0,Z1> in S_2).
  EXPECT_EQ(stats.joined, 7u);
  EXPECT_EQ(stats.pruned, 2u);
}

TEST(SubsetGraphTest, ReproducesFig7aEdges) {
  CandidateGraph c3 = SubsetGraphUnion(MakeFig5Survivors(), 3);
  EXPECT_EQ(ShapeOf(c3).edges,
            (std::set<std::pair<std::string, std::string>>{
                {"<d0:1, d1:1, d2:0>", "<d0:1, d1:1, d2:1>"},
                {"<d0:1, d1:1, d2:1>", "<d0:1, d1:1, d2:2>"},
                {"<d0:1, d1:0, d2:2>", "<d0:1, d1:1, d2:2>"},
                {"<d0:0, d1:1, d2:2>", "<d0:1, d1:1, d2:2>"}}));
}

TEST(SubsetGraphTest, Fig7aHasThreeRootsOneFamily) {
  // §3.3.1: <B1,S1,Z0>, <B1,S0,Z2>, <B0,S1,Z2> are all roots of the
  // 3-attribute graph and come from the same family.
  CandidateGraph c3 = SubsetGraphUnion(MakeFig5Survivors(), 3);
  std::vector<int64_t> roots = c3.Roots();
  EXPECT_EQ(roots.size(), 3u);
  std::set<std::string> root_names;
  for (int64_t r : roots) {
    root_names.insert(c3.node(r).ToSubsetNode().ToString());
  }
  EXPECT_EQ(root_names,
            (std::set<std::string>{"<d0:1, d1:1, d2:0>", "<d0:1, d1:0, d2:2>",
                                   "<d0:0, d1:1, d2:2>"}));
}

TEST(SubsetGraphTest, WithoutPruningProducesFullLattice) {
  // Feeding complete single-attribute chains through two generation steps
  // must reproduce the complete 3-attribute lattice (Fig. 7(b)): a-priori
  // pruning only ever removes nodes that some subset test rules out.
  Result<PatientsDataset> patients = MakePatientsDataset();
  ASSERT_TRUE(patients.ok());
  CandidateGraph c1 = MakeSingleAttributeGraph(patients->qid);
  CandidateGraph c2 = SubsetGraphUnion(c1, 3);
  // Pairwise lattices: B×S (2·2) + B×Z (2·3) + S×Z (2·3) = 16 nodes,
  // 4 + 7 + 7 = 18 edges.
  EXPECT_EQ(c2.num_nodes(), 16u);
  EXPECT_EQ(c2.num_edges(), 18u);
  CandidateGraph c3 = SubsetGraphUnion(c2, 3);
  // Full lattice: 2·2·3 = 12 nodes; edges: Σ over nodes of raisable dims.
  EXPECT_EQ(c3.num_nodes(), 12u);
  EXPECT_EQ(c3.num_edges(), 20u);
  EXPECT_EQ(c3.Roots().size(), 1u);  // the all-zeros bottom
}

TEST(SubsetGraphTest, EmptyJoinParentYieldsEmptyGraph) {
  Result<PatientsDataset> patients = MakePatientsDataset();
  ASSERT_TRUE(patients.ok());
  CandidateGraph empty;
  empty.BuildAdjacency();
  const CandidateGraph sex = MakeSingleDimensionChain(patients->qid, kS);
  // D = {B, S}: parents[1] (D minus S) is Birthdate's, here empty.
  GraphGenStats stats;
  CandidateGraph next = GenerateSubsetGraph({&sex, &empty}, &stats);
  EXPECT_EQ(next.num_nodes(), 0u);
  EXPECT_EQ(stats.joined, 0u);
}

TEST(SubsetGraphTest, EdgeCountsOnRandomLattices) {
  // Property: generating from complete single-attribute chains twice
  // always yields the full 3-attribute lattice with the right counts.
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 3;
    opts.num_rows = 10;
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    std::vector<int32_t> max_levels = ds.qid.MaxLevels();
    CandidateGraph c1 = MakeSingleAttributeGraph(ds.qid);
    CandidateGraph c2 = SubsetGraphUnion(c1, 3);
    CandidateGraph c3 = SubsetGraphUnion(c2, 3);
    uint64_t expected_nodes = 1;
    for (int32_t m : max_levels) expected_nodes *= static_cast<uint64_t>(m + 1);
    EXPECT_EQ(c3.num_nodes(), expected_nodes);
    // Edge count of the full lattice: Σ_nodes (#dims below max).
    GeneralizationLattice lattice(max_levels);
    uint64_t expected_edges = 0;
    for (const LevelVector& v : lattice.AllNodesByHeight()) {
      expected_edges += lattice.DirectGeneralizations(v).size();
    }
    EXPECT_EQ(c3.num_edges(), expected_edges);
  }
}

TEST(SubsetGraphTest, UnionMatchesLevelWiseOracle) {
  // Fig. 5's survivors, then randomly thinned survivor graphs of random
  // lattices at every level: thinning exercises the prune phase and the
  // implied-edge removal, which complete lattices barely touch.
  ExpectUnionMatchesOracle(MakeFig5Survivors(), 3, "Fig. 5");
  Rng rng(2005);
  size_t pruned = 0;
  size_t implied = 0;
  for (int trial = 0; trial < 12; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 3 + trial % 3;
    opts.num_rows = 10;
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    const size_t n = ds.qid.size();
    CandidateGraph candidates = MakeSingleAttributeGraph(ds.qid);
    for (size_t i = 1; i < n && candidates.num_nodes() > 0; ++i) {
      std::vector<bool> keep(candidates.num_nodes());
      for (size_t id = 0; id < keep.size(); ++id) keep[id] = rng.Uniform(4) != 0;
      GraphGenStats step;
      candidates = ExpectUnionMatchesOracle(
          candidates.InducedSubgraph(keep), n,
          "trial " + std::to_string(trial) + " i=" + std::to_string(i),
          &step);
      pruned += step.pruned;
      implied += step.implied_removed;
    }
  }
  // The sweep reached both phases the complete lattices skip.
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(implied, 0u);
}

}  // namespace
}  // namespace incognito
