#ifndef INCOGNITO_CORE_BOTTOM_UP_H_
#define INCOGNITO_CORE_BOTTOM_UP_H_

#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "lattice/node.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// Switches for the bottom-up breadth-first baseline (paper §2.2).
struct BottomUpOptions {
  /// When true, a node's frequency set is produced by rolling up the
  /// frequency set of one of its direct specializations ("Bottom-Up w/
  /// rollup"); when false every node is evaluated with its own scan of T
  /// ("Bottom-Up w/o rollup").
  bool use_rollup = false;

  /// When true, generalizations of nodes found k-anonymous are marked and
  /// not re-checked (the generalization property applied to the full
  /// lattice). The paper's exhaustive baseline checks every encountered
  /// node, so this defaults to false; it is exercised by the ablation
  /// bench.
  bool use_generalization_marking = false;
};

/// Output of the bottom-up search: like Incognito, the complete set of
/// k-anonymous full-domain generalizations (the exhaustive baseline is
/// also sound and complete, just slower).
struct BottomUpResult {
  std::vector<SubsetNode> anonymous_nodes;

  /// Lattice heights fully evaluated. Equals MaxHeight()+1 on a complete
  /// run; smaller when a governed run tripped mid-search, in which case
  /// anonymous_nodes holds the nodes *confirmed* k-anonymous before the
  /// trip — a sound subset of the complete answer.
  int64_t completed_heights = 0;

  AlgorithmStats stats;
};

/// Exhaustive bottom-up breadth-first search of the full multi-attribute
/// generalization lattice, optionally with rollup aggregation along the
/// dimension hierarchies (paper §2.2, run exhaustively as in §4).
///
/// `ctx` carries the execution parameters (docs/API.md). The walk polls
/// the governor at every lattice node and charges frequency sets against
/// its memory budget: ctx.governor, or a private unlimited one when it is
/// null, so a default RunContext never trips and reports zero trip
/// counters. A budget trip stops the walk
/// and returns PartialResult::Partial whose anonymous_nodes are the nodes
/// confirmed so far (a subset of the complete answer; see
/// BottomUpResult::completed_heights). The algorithm is single-threaded:
/// ctx.num_threads is ignored.
PartialResult<BottomUpResult> RunBottomUpBfs(const Table& table,
                                             const QuasiIdentifier& qid,
                                             const AnonymizationConfig& config,
                                             const BottomUpOptions& options = {},
                                             const RunContext& ctx = {});

}  // namespace incognito

#endif  // INCOGNITO_CORE_BOTTOM_UP_H_
