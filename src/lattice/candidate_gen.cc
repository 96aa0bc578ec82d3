#include "lattice/candidate_gen.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "lattice/hash_tree.h"
#include "obs/obs.h"
#include "robust/governor.h"

namespace incognito {

CandidateGraph MakeSingleAttributeGraph(const QuasiIdentifier& qid) {
  INCOGNITO_SPAN("lattice.single_attribute_graph");
  CandidateGraph graph;
  std::vector<std::vector<int64_t>> level_ids(qid.size());
  for (size_t d = 0; d < qid.size(); ++d) {
    size_t height = qid.hierarchy(d).height();
    level_ids[d].resize(height + 1);
    for (size_t l = 0; l <= height; ++l) {
      NodeRow row;
      row.pairs = {{static_cast<int32_t>(d), static_cast<int32_t>(l)}};
      level_ids[d][l] = graph.AddNode(std::move(row));
    }
  }
  for (size_t d = 0; d < qid.size(); ++d) {
    for (size_t l = 0; l + 1 < level_ids[d].size(); ++l) {
      graph.AddEdge(level_ids[d][l], level_ids[d][l + 1]);
    }
  }
  graph.BuildAdjacency();
  return graph;
}

namespace {

/// Key for grouping nodes by all pairs except the last (the join phase's
/// equality predicate on dim_1..dim_{i-2}, index_1..index_{i-2}).
std::vector<DimIndexPair> PrefixKey(const NodeRow& row) {
  return {row.pairs.begin(), row.pairs.end() - 1};
}

struct ParentPairHash {
  size_t operator()(const std::pair<int64_t, int64_t>& p) const {
    return std::hash<int64_t>()(p.first) * 1000003u ^
           std::hash<int64_t>()(p.second);
  }
};

/// The prune phase: a candidate survives only if every i-subset of its
/// pairs is in `tree`. Dropping the last pair yields parent1 and dropping
/// the second-to-last yields parent2 — both survivors by construction — so
/// only the remaining i-1 subsets need the membership test. Returns the
/// survivors, renumbered in order.
CandidateGraph PruneCandidates(const CandidateGraph& joined,
                               const SubsetHashTree& tree,
                               GraphGenStats* stats) {
  CandidateGraph pruned;
  for (const NodeRow& cand : joined.nodes()) {
    bool keep = true;
    for (size_t drop = 0; keep && drop + 2 < cand.pairs.size(); ++drop) {
      std::vector<DimIndexPair> subset;
      subset.reserve(cand.pairs.size() - 1);
      for (size_t j = 0; j < cand.pairs.size(); ++j) {
        if (j != drop) subset.push_back(cand.pairs[j]);
      }
      keep = tree.Contains(subset);
    }
    if (keep) {
      pruned.AddNode(cand);
    } else {
      ++stats->pruned;
    }
  }
  return pruned;
}

/// Edge generation over the pruned candidates of `graph`, whose parent1
/// ids are nodes of `p_side` and parent2 ids nodes of `q_side`: the
/// paper's three-disjunct join over those graphs' edges, then the removal
/// of implied relationships ("they may only be separated by a single
/// node", §3.1.2). Then builds the adjacency and records the step's
/// counters.
void ConnectCandidates(const CandidateGraph& p_side,
                       const CandidateGraph& q_side, GraphGenStats* stats,
                       CandidateGraph* graph) {
  std::unordered_map<std::pair<int64_t, int64_t>, int64_t, ParentPairHash>
      by_parents;
  for (const NodeRow& cand : graph->nodes()) {
    by_parents[{cand.parent1, cand.parent2}] = cand.id;
  }
  std::set<std::pair<int64_t, int64_t>> candidate_edges;
  auto try_edge = [&](int64_t p_id, int64_t q_parent1, int64_t q_parent2) {
    auto it = by_parents.find({q_parent1, q_parent2});
    if (it != by_parents.end() && it->second != p_id) {
      candidate_edges.insert({p_id, it->second});
    }
  };
  for (const NodeRow& cand : graph->nodes()) {
    // Disjunct 1: e: parent1 → q.parent1 and f: parent2 → q.parent2.
    for (int64_t e_end : p_side.OutEdges(cand.parent1)) {
      for (int64_t f_end : q_side.OutEdges(cand.parent2)) {
        try_edge(cand.id, e_end, f_end);
      }
    }
    // Disjunct 2: e: parent1 → q.parent1, parent2 equal.
    for (int64_t e_end : p_side.OutEdges(cand.parent1)) {
      try_edge(cand.id, e_end, cand.parent2);
    }
    // Disjunct 3: f: parent2 → q.parent2, parent1 equal.
    for (int64_t f_end : q_side.OutEdges(cand.parent2)) {
      try_edge(cand.id, cand.parent1, f_end);
    }
  }
  stats->candidate_edges = candidate_edges.size();

  // EXCEPT: remove relationships implied by a 2-path of candidate edges.
  std::unordered_map<int64_t, std::vector<int64_t>> out_adj;
  for (const auto& [start, end] : candidate_edges) {
    out_adj[start].push_back(end);
  }
  for (const auto& [start, end] : candidate_edges) {
    bool implied = false;
    auto it = out_adj.find(start);
    if (it != out_adj.end()) {
      for (int64_t mid : it->second) {
        if (mid != end && candidate_edges.count({mid, end}) > 0) {
          implied = true;
          break;
        }
      }
    }
    if (!implied) {
      graph->AddEdge(start, end);
    } else {
      ++stats->implied_removed;
    }
  }

  graph->BuildAdjacency();
  INCOGNITO_COUNT_ADD("lattice.joined", static_cast<int64_t>(stats->joined));
  INCOGNITO_COUNT_ADD("lattice.pruned", static_cast<int64_t>(stats->pruned));
  INCOGNITO_COUNT_ADD("lattice.candidate_edges",
                      static_cast<int64_t>(stats->candidate_edges));
}

}  // namespace

CandidateGraph GenerateNextGraph(const CandidateGraph& survivors,
                                 GraphGenStats* stats,
                                 ExecutionGovernor* governor) {
  INCOGNITO_SPAN("lattice.candidate_gen");
  INCOGNITO_PHASE_TIMER("phase.candidate_gen_seconds");
  INCOGNITO_COUNT("lattice.candidate_gen_calls");
  GraphGenStats local_stats;
  CandidateGraph next;
  if (survivors.num_nodes() == 0) {
    next.BuildAdjacency();
    if (stats != nullptr) *stats = local_stats;
    return next;
  }

  // ---- Join phase -------------------------------------------------------
  // Group surviving nodes by their first i-1 pairs; within a group, every
  // ordered pair (p, q) with p's last dimension < q's last dimension joins
  // into a candidate of size i+1 (paper's INSERT INTO C_i ... SELECT).
  std::map<std::vector<DimIndexPair>, std::vector<int64_t>> groups;
  for (const NodeRow& row : survivors.nodes()) {
    groups[PrefixKey(row)].push_back(row.id);
  }
  for (auto& [prefix, ids] : groups) {
    (void)prefix;
    for (int64_t p_id : ids) {
      for (int64_t q_id : ids) {
        const NodeRow& p = survivors.node(p_id);
        const NodeRow& q = survivors.node(q_id);
        if (p.pairs.back().dim >= q.pairs.back().dim) continue;
        NodeRow cand;
        cand.pairs = p.pairs;
        cand.pairs.push_back(q.pairs.back());
        cand.parent1 = p_id;
        cand.parent2 = q_id;
        next.AddNode(std::move(cand));
        ++local_stats.joined;
      }
    }
  }

  // ---- Prune phase ------------------------------------------------------
  // The membership tests query S_i, held in an Apriori hash tree that is
  // charged while the prune runs.
  SubsetHashTree tree;
  for (const NodeRow& row : survivors.nodes()) tree.Insert(row.pairs);
  int64_t tree_bytes = 0;
  if (governor != nullptr) {
    tree_bytes = static_cast<int64_t>(tree.MemoryBytes());
    if (!governor->ChargeMemory(tree_bytes).ok()) tree_bytes = 0;
  }
  CandidateGraph graph = PruneCandidates(next, tree, &local_stats);
  if (governor != nullptr && tree_bytes > 0) {
    governor->ReleaseMemory(tree_bytes);
  }

  // ---- Edge generation --------------------------------------------------
  // Both parents of every candidate are survivors of S_i.
  ConnectCandidates(survivors, survivors, &local_stats, &graph);
  if (stats != nullptr) *stats = local_stats;
  return graph;
}

CandidateGraph MakeSingleDimensionChain(const QuasiIdentifier& qid,
                                        size_t dim) {
  CandidateGraph graph;
  size_t height = qid.hierarchy(dim).height();
  for (size_t l = 0; l <= height; ++l) {
    NodeRow row;
    row.pairs = {{static_cast<int32_t>(dim), static_cast<int32_t>(l)}};
    graph.AddNode(std::move(row));
  }
  for (size_t l = 0; l < height; ++l) {
    graph.AddEdge(static_cast<int64_t>(l), static_cast<int64_t>(l + 1));
  }
  graph.BuildAdjacency();
  return graph;
}

CandidateGraph GenerateSubsetGraph(
    const std::vector<const CandidateGraph*>& parents, GraphGenStats* stats,
    GovernorShard* shard) {
  INCOGNITO_SPAN("lattice.subset_candidate_gen");
  INCOGNITO_PHASE_TIMER("phase.candidate_gen_seconds");
  INCOGNITO_COUNT("lattice.subset_candidate_gen_calls");
  GraphGenStats local_stats;
  CandidateGraph next;
  assert(parents.size() >= 2);
  // The two designated join parents: dropping D's largest dimension gives
  // the p side (its nodes end in D's second-largest dimension), dropping
  // the second-largest gives the q side (its nodes end in the largest).
  const CandidateGraph& p_graph = *parents[parents.size() - 1];
  const CandidateGraph& q_graph = *parents[parents.size() - 2];
  if (p_graph.num_nodes() == 0 || q_graph.num_nodes() == 0) {
    next.BuildAdjacency();
    if (stats != nullptr) *stats = local_stats;
    return next;
  }

  // ---- Join phase -------------------------------------------------------
  // Batch GenerateNextGraph joins p, q from the same prefix group with
  // p.last.dim < q.last.dim. Restricted to subset D that is exactly: p
  // from D minus its largest dimension, q from D minus its second-largest,
  // equal on the shared prefix — the ordering predicate holds for every
  // such pair by construction.
  std::map<std::vector<DimIndexPair>, std::vector<int64_t>> q_by_prefix;
  for (const NodeRow& row : q_graph.nodes()) {
    q_by_prefix[PrefixKey(row)].push_back(row.id);
  }
  for (const NodeRow& p : p_graph.nodes()) {
    auto it = q_by_prefix.find(PrefixKey(p));
    if (it == q_by_prefix.end()) continue;
    for (int64_t q_id : it->second) {
      const NodeRow& q = q_graph.node(q_id);
      assert(p.pairs.back().dim < q.pairs.back().dim);
      NodeRow cand;
      cand.pairs = p.pairs;
      cand.pairs.push_back(q.pairs.back());
      cand.parent1 = p.id;
      cand.parent2 = q_id;
      next.AddNode(std::move(cand));
      ++local_stats.joined;
    }
  }

  // ---- Prune phase ------------------------------------------------------
  // The batch prune drops each non-designated position of a candidate and
  // tests membership in S_i; a candidate of subset D with position `drop`
  // dropped lies in subset D minus its drop-th dimension — i.e. among
  // parents[drop]'s nodes. The tree over parents[0..size-3] therefore
  // answers exactly the queries the batch tree (over all of S_i) would.
  SubsetHashTree tree;
  for (size_t j = 0; j + 2 < parents.size(); ++j) {
    for (const NodeRow& row : parents[j]->nodes()) tree.Insert(row.pairs);
  }
  int64_t tree_bytes = 0;
  if (shard != nullptr) {
    tree_bytes = static_cast<int64_t>(tree.MemoryBytes());
    if (!shard->ChargeMemory(tree_bytes).ok()) tree_bytes = 0;
  }
  CandidateGraph graph = PruneCandidates(next, tree, &local_stats);
  if (shard != nullptr && tree_bytes > 0) {
    shard->ReleaseMemory(tree_bytes);
  }

  // ---- Edge generation --------------------------------------------------
  // The batch join, with the parent ids local to p_graph / q_graph. Edges
  // never cross subsets, so the batch edge set restricted to D is
  // reproduced exactly.
  ConnectCandidates(p_graph, q_graph, &local_stats, &graph);
  if (stats != nullptr) *stats = local_stats;
  return graph;
}

}  // namespace incognito
