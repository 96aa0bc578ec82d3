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
  const size_t i = survivors.subset_size();
  (void)i;

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
  // A candidate survives only if every i-subset of its pairs is in S_i.
  // Dropping the last pair yields p and dropping the (i)th yields q — both
  // in S_i by construction — so only the remaining i-1 subsets need the
  // hash-tree membership test.
  SubsetHashTree tree;
  for (const NodeRow& row : survivors.nodes()) tree.Insert(row.pairs);
  int64_t tree_bytes = 0;
  if (governor != nullptr) {
    tree_bytes = static_cast<int64_t>(tree.MemoryBytes());
    if (!governor->ChargeMemory(tree_bytes).ok()) tree_bytes = 0;
  }
  std::vector<bool> keep(next.num_nodes(), true);
  for (const NodeRow& cand : next.nodes()) {
    for (size_t drop = 0; drop + 2 < cand.pairs.size(); ++drop) {
      std::vector<DimIndexPair> subset;
      subset.reserve(cand.pairs.size() - 1);
      for (size_t j = 0; j < cand.pairs.size(); ++j) {
        if (j != drop) subset.push_back(cand.pairs[j]);
      }
      if (!tree.Contains(subset)) {
        keep[static_cast<size_t>(cand.id)] = false;
        ++local_stats.pruned;
        break;
      }
    }
  }
  if (governor != nullptr && tree_bytes > 0) {
    governor->ReleaseMemory(tree_bytes);
  }
  // Rebuild the candidate table with only unpruned nodes (IDs renumbered).
  CandidateGraph pruned_graph;
  std::vector<int64_t> remap(next.num_nodes(), -1);
  for (const NodeRow& cand : next.nodes()) {
    if (keep[static_cast<size_t>(cand.id)]) {
      NodeRow row = cand;
      remap[static_cast<size_t>(cand.id)] = pruned_graph.AddNode(std::move(row));
    }
  }

  // ---- Edge generation --------------------------------------------------
  // CandidateEdges via the paper's three-disjunct join over E_i, using the
  // tracked parent IDs, then subtraction of implied (2-path) edges.
  std::unordered_map<std::pair<int64_t, int64_t>, int64_t, ParentPairHash>
      by_parents;
  for (const NodeRow& cand : pruned_graph.nodes()) {
    by_parents[{cand.parent1, cand.parent2}] = cand.id;
  }

  std::set<std::pair<int64_t, int64_t>> candidate_edges;
  auto try_edge = [&](int64_t p_id, int64_t q_parent1, int64_t q_parent2) {
    auto it = by_parents.find({q_parent1, q_parent2});
    if (it != by_parents.end() && it->second != p_id) {
      candidate_edges.insert({p_id, it->second});
    }
  };
  for (const NodeRow& cand : pruned_graph.nodes()) {
    // Disjunct 1: e: parent1 → q.parent1 and f: parent2 → q.parent2.
    for (int64_t e_end : survivors.OutEdges(cand.parent1)) {
      for (int64_t f_end : survivors.OutEdges(cand.parent2)) {
        try_edge(cand.id, e_end, f_end);
      }
    }
    // Disjunct 2: e: parent1 → q.parent1, parent2 equal.
    for (int64_t e_end : survivors.OutEdges(cand.parent1)) {
      try_edge(cand.id, e_end, cand.parent2);
    }
    // Disjunct 3: f: parent2 → q.parent2, parent1 equal.
    for (int64_t f_end : survivors.OutEdges(cand.parent2)) {
      try_edge(cand.id, cand.parent1, f_end);
    }
  }
  local_stats.candidate_edges = candidate_edges.size();

  // EXCEPT: remove relationships implied by a 2-path of candidate edges
  // ("they may only be separated by a single node", §3.1.2).
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
      pruned_graph.AddEdge(start, end);
    } else {
      ++local_stats.implied_removed;
    }
  }

  pruned_graph.BuildAdjacency();
  INCOGNITO_COUNT_ADD("lattice.joined",
                      static_cast<int64_t>(local_stats.joined));
  INCOGNITO_COUNT_ADD("lattice.pruned",
                      static_cast<int64_t>(local_stats.pruned));
  INCOGNITO_COUNT_ADD("lattice.candidate_edges",
                      static_cast<int64_t>(local_stats.candidate_edges));
  if (stats != nullptr) *stats = local_stats;
  (void)remap;
  return pruned_graph;
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
  std::vector<bool> keep(next.num_nodes(), true);
  for (const NodeRow& cand : next.nodes()) {
    for (size_t drop = 0; drop + 2 < cand.pairs.size(); ++drop) {
      std::vector<DimIndexPair> subset;
      subset.reserve(cand.pairs.size() - 1);
      for (size_t j = 0; j < cand.pairs.size(); ++j) {
        if (j != drop) subset.push_back(cand.pairs[j]);
      }
      if (!tree.Contains(subset)) {
        keep[static_cast<size_t>(cand.id)] = false;
        ++local_stats.pruned;
        break;
      }
    }
  }
  if (shard != nullptr && tree_bytes > 0) {
    shard->ReleaseMemory(tree_bytes);
  }
  CandidateGraph pruned_graph;
  for (const NodeRow& cand : next.nodes()) {
    if (keep[static_cast<size_t>(cand.id)]) {
      NodeRow row = cand;
      pruned_graph.AddNode(std::move(row));
    }
  }

  // ---- Edge generation --------------------------------------------------
  // Identical to the batch three-disjunct join, with the parent ids local
  // to p_graph / q_graph. Edges never cross subsets, so the batch edge set
  // restricted to D is reproduced exactly.
  std::unordered_map<std::pair<int64_t, int64_t>, int64_t, ParentPairHash>
      by_parents;
  for (const NodeRow& cand : pruned_graph.nodes()) {
    by_parents[{cand.parent1, cand.parent2}] = cand.id;
  }
  std::set<std::pair<int64_t, int64_t>> candidate_edges;
  auto try_edge = [&](int64_t p_id, int64_t q_parent1, int64_t q_parent2) {
    auto it = by_parents.find({q_parent1, q_parent2});
    if (it != by_parents.end() && it->second != p_id) {
      candidate_edges.insert({p_id, it->second});
    }
  };
  for (const NodeRow& cand : pruned_graph.nodes()) {
    for (int64_t e_end : p_graph.OutEdges(cand.parent1)) {
      for (int64_t f_end : q_graph.OutEdges(cand.parent2)) {
        try_edge(cand.id, e_end, f_end);
      }
    }
    for (int64_t e_end : p_graph.OutEdges(cand.parent1)) {
      try_edge(cand.id, e_end, cand.parent2);
    }
    for (int64_t f_end : q_graph.OutEdges(cand.parent2)) {
      try_edge(cand.id, cand.parent1, f_end);
    }
  }
  local_stats.candidate_edges = candidate_edges.size();

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
      pruned_graph.AddEdge(start, end);
    } else {
      ++local_stats.implied_removed;
    }
  }

  pruned_graph.BuildAdjacency();
  INCOGNITO_COUNT_ADD("lattice.joined",
                      static_cast<int64_t>(local_stats.joined));
  INCOGNITO_COUNT_ADD("lattice.pruned",
                      static_cast<int64_t>(local_stats.pruned));
  INCOGNITO_COUNT_ADD("lattice.candidate_edges",
                      static_cast<int64_t>(local_stats.candidate_edges));
  if (stats != nullptr) *stats = local_stats;
  return pruned_graph;
}

}  // namespace incognito
