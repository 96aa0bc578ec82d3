#ifndef INCOGNITO_MODELS_KOPTIMIZE_H_
#define INCOGNITO_MODELS_KOPTIMIZE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// Options for the optimal set-enumeration search.
struct KOptimizeOptions {
  /// Hard cap on the total number of candidate cut points (the search
  /// space is 2^cuts; the branch-and-bound prunes most of it, but inputs
  /// beyond this are rejected rather than risked).
  size_t max_total_cuts = 24;
  /// Safety valve: abort with ResourceExhausted after this many search
  /// nodes (0 = unlimited).
  int64_t max_nodes = 5'000'000;
};

/// Output of the optimal search.
struct KOptimizeResult {
  Table view;
  /// Chosen cut points as (attribute, rank boundary) pairs — a cut at
  /// rank r splits between sorted domain positions r-1 and r.
  std::vector<std::pair<size_t, size_t>> cuts;
  /// Minimized cost: Σ|class|² over released classes + |T| per suppressed
  /// tuple (the discernibility metric with suppression penalty of [3]).
  double cost = 0;
  int64_t suppressed_tuples = 0;
  /// Search effort: set-enumeration nodes visited / pruned by the bound.
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;

  /// Timing plus governor activity (governed runs).
  AlgorithmStats stats;
};

/// Optimal Single-Dimension Ordered-Set Partitioning in the style of
/// Bayardo-Agrawal's k-Optimize (paper reference [3], the "top-down
/// set-enumeration approach for finding an anonymization that is optimal
/// according to a given cost metric" of §6): the anonymization is a set of
/// cut points over the sorted per-attribute domains; the search walks the
/// set-enumeration tree from the empty cut set (fully generalized) adding
/// cuts depth-first, pruning subtrees with an admissible lower bound —
/// under any refinement, a tuple whose fully-refined subgroup has size s
/// costs at least max(s, k) if released and |T| if suppressed, so
/// LB = Σ_subgroups s·max(s, k) (undersized subgroups may merge upward,
/// still ≥ k per tuple).
///
/// Undersized classes are suppressed at |T| penalty per tuple (never
/// infeasible). Exact but exponential in the number of cuts: intended for
/// small/pre-binned domains; see KOptimizeOptions::max_total_cuts.
///
/// `ctx` carries the execution parameters (docs/API.md). The search polls
/// the governor at every set-enumeration node and charges the initial
/// frequency set against its memory budget: ctx.governor, or a private
/// unlimited one when it is null, so a default RunContext never trips and
/// reports zero trip counters. The initial scan itself runs through
/// FrequencySet::TryCompute; an injected fault there returns an empty
/// partial result with the fault's status. A budget trip stops
/// the enumeration and materializes the BEST CUT SET FOUND SO FAR: because
/// every cut-set mask induces a k-anonymous release (undersized classes
/// are suppressed), the partial view is sound — it is just not provably
/// optimal, and cost/cuts reflect the best-so-far mask rather than the
/// optimum. The options.max_nodes safety valve is unchanged and remains a
/// hard Internal error (an un-governed abort proves nothing). The
/// algorithm is single-threaded: ctx.num_threads is ignored.
PartialResult<KOptimizeResult> RunKOptimize(const Table& table,
                                            const QuasiIdentifier& qid,
                                            const AnonymizationConfig& config,
                                            const KOptimizeOptions& options = {},
                                            const RunContext& ctx = {});

}  // namespace incognito

#endif  // INCOGNITO_MODELS_KOPTIMIZE_H_
