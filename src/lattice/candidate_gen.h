#ifndef INCOGNITO_LATTICE_CANDIDATE_GEN_H_
#define INCOGNITO_LATTICE_CANDIDATE_GEN_H_

#include <cstddef>

#include "core/quasi_identifier.h"
#include "lattice/graph_tables.h"

namespace incognito {

class ExecutionGovernor;

/// Counters describing one GraphGeneration step (the tests use them to
/// quantify a-priori pruning).
struct GraphGenStats {
  size_t joined = 0;            ///< candidates produced by the join phase
  size_t pruned = 0;            ///< candidates removed by the prune phase
  size_t candidate_edges = 0;   ///< edges produced before implied removal
  size_t implied_removed = 0;   ///< implied edges removed
};

/// The chain graph of one attribute's generalization hierarchy: its
/// domains as nodes, each linked to the next level up (paper Fig. 8's
/// initialization, one attribute at a time). Seeds the subset DAG.
CandidateGraph MakeSingleDimensionChain(const QuasiIdentifier& qid,
                                        size_t dim);

/// The GraphGeneration procedure of paper §3.1.2 for ONE size-(i+1)
/// attribute subset D (docs/PARALLELISM.md "Pipelined subset DAG"):
/// builds D's candidate graph from the published survivor graphs of its
/// immediate sub-subsets via
///   1. the join phase (p, q agreeing on their first i-1 (dim, index)
///      pairs, q ending in a larger dimension than p),
///   2. the prune phase (subset check against the survivors via an
///      Apriori hash tree), and
///   3. edge generation (the paper's three-disjunct join over the parents'
///      edges followed by removal of implied, one-node-separated
///      relationships).
/// `parents[j]` must be the survivor graph of D with its j-th attribute
/// (in ascending dimension order) dropped, so parents.size() == i+1. The
/// join operands are parents[i] (D minus its largest dimension) and
/// parents[i-1] (D minus its second-largest); the remaining parents serve
/// the prune phase's membership tests.
///
/// Candidates and edges never cross attribute subsets, so the union over
/// all size-(i+1) subsets D of these graphs is node- and edge-identical to
/// the paper's level-wise generation over all of S_i, with the same summed
/// GraphGenStats (tests/candidate_gen_test.cc checks it against a
/// transcription kept in tests/test_util.h); only the node ids are
/// subset-local, and ids are never part of the search outcome. The
/// returned graph has adjacency built.
///
/// When `governor` is non-null the prune hash tree is charged against it
/// for the duration of the prune; a refused charge latches the trip (for
/// the caller to observe) but the graph is still generated — candidate
/// generation is never the step that loses work.
CandidateGraph GenerateSubsetGraph(
    const std::vector<const CandidateGraph*>& parents,
    GraphGenStats* stats = nullptr, ExecutionGovernor* governor = nullptr);

}  // namespace incognito

#endif  // INCOGNITO_LATTICE_CANDIDATE_GEN_H_
