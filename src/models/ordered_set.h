#ifndef INCOGNITO_MODELS_ORDERED_SET_H_
#define INCOGNITO_MODELS_ORDERED_SET_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// Output of the ordered-set partition recoder.
struct OrderedSetResult {
  Table view;
  int64_t suppressed_tuples = 0;
  /// Final interval count per quasi-identifier attribute.
  std::vector<size_t> intervals_per_attribute;

  /// Refinement rounds evaluated plus governor activity (governed runs).
  AlgorithmStats stats;
};

/// Single-Dimension Ordered-Set Partitioning (paper §5.1.2, the model of
/// Bayardo-Agrawal [3]): each attribute's domain is treated as a totally
/// ordered set and recoded into disjoint covering intervals; no
/// generalization hierarchy is involved.
///
/// This implementation is a greedy heuristic instance of the model
/// (the optimal search of [3] is a set-enumeration algorithm out of this
/// paper's scope): starting from singleton intervals, it repeatedly halves
/// the partition of the attribute with the most intervals (merging
/// adjacent interval pairs) until the view satisfies k-anonymity within
/// the Datafly-style suppression budget.
///
/// `ctx` carries the execution parameters (docs/API.md). The recoder polls
/// the governor per merge round and charges each round's grouping
/// structure against its memory budget: ctx.governor, or a private unlimited one when it is
/// null, so a default RunContext never trips and reports zero trip
/// counters. A budget trip returns PartialResult::Partial with an EMPTY view (the intermediate
/// partitioning is not yet k-anonymous and must not be released); only the
/// stats carry the progress made. The algorithm is single-threaded:
/// ctx.num_threads is ignored.
PartialResult<OrderedSetResult> RunOrderedSetPartition(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const RunContext& ctx = {});

/// Output of the exact univariate partitioner.
struct OptimalUnivariateResult {
  Table view;
  /// Tuple count per released interval, in domain order.
  std::vector<int64_t> interval_sizes;
  /// Σ |interval|² — the minimized discernibility of the release.
  double discernibility = 0;
};

/// Exact instance of the ordered-set partitioning model for a
/// single-attribute quasi-identifier: dynamic programming over the sorted
/// domain finds the k-anonymous consecutive-interval partition minimizing
/// the discernibility metric Σ|interval|² (for one dimension the optimal
/// partition is always interval-consecutive, so the DP is exact — the
/// one-dimensional core of what [3] searches for). O(m²) in the number of
/// distinct values; inputs beyond 5000 distinct values are rejected.
/// Requires qid.size() == 1 and total rows >= k.
Result<OptimalUnivariateResult> OptimalUnivariatePartition(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config);

}  // namespace incognito

#endif  // INCOGNITO_MODELS_ORDERED_SET_H_
