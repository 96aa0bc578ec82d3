#ifndef INCOGNITO_CORE_BINARY_SEARCH_H_
#define INCOGNITO_CORE_BINARY_SEARCH_H_

#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "lattice/node.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// Output of Samarati's binary search.
struct BinarySearchResult {
  /// True iff any full-domain generalization satisfies k-anonymity (false
  /// only when even the fully-generalized table fails, i.e. fewer than k
  /// tuples remain after suppression).
  bool found = false;

  /// One minimal k-anonymous generalization (minimal height, the paper's
  /// §2.1 definition of minimality). Valid only when found.
  SubsetNode node;

  /// Every k-anonymous generalization at the minimal height.
  std::vector<SubsetNode> all_at_minimal_height;

  /// The search bracket: the minimal k-anonymous height (if any) lies in
  /// [bracket_low, bracket_high]. On a complete successful run both equal
  /// the minimal height; on a governed run that tripped mid-search they
  /// record the progress proven so far (bracket_high == -1 until the first
  /// probe confirms any solution exists).
  int32_t bracket_low = 0;
  int32_t bracket_high = -1;

  AlgorithmStats stats;
};

/// Samarati's algorithm (paper §2.2, [14]): binary search on the height of
/// the full generalization lattice, using the observation that if no
/// generalization of height h is k-anonymous then none of height h' < h is.
/// Each probe evaluates the generalizations at one height with one
/// GROUP BY scan per node until an anonymous one is found. Finds a single
/// height-minimal generalization — not the complete result set Incognito
/// produces.
///
/// `ctx` carries the execution parameters (docs/API.md). The search polls
/// the governor at every node probe and charges each probe's frequency set
/// against its memory budget: ctx.governor, or a private unlimited one when it is
/// null, so a default RunContext never trips and reports zero trip
/// counters. A budget trip stops
/// the search and returns PartialResult::Partial with found == false and
/// the bracket proven so far (see BinarySearchResult::bracket_low/_high).
/// The algorithm is single-threaded: ctx.num_threads is ignored.
PartialResult<BinarySearchResult> RunSamaratiBinarySearch(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const RunContext& ctx = {});

}  // namespace incognito

#endif  // INCOGNITO_CORE_BINARY_SEARCH_H_
