#ifndef INCOGNITO_MODELS_CELL_SUPPRESSION_H_
#define INCOGNITO_MODELS_CELL_SUPPRESSION_H_

#include <cstdint>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// Output of the cell-suppression recoder.
struct CellSuppressionResult {
  Table view;
  int64_t cells_suppressed = 0;
  int64_t tuples_suppressed = 0;

  /// Suppression rounds evaluated plus governor activity (governed runs).
  AlgorithmStats stats;
};

/// Local recoding by Cell Suppression (paper §5.2, [1, 13, 20]): instead of
/// recoding whole domains, individual cells of individual tuples are
/// replaced by '*'. A suppressed cell is its own value for grouping (a '*'
/// matches only another '*'), so the released view is k-anonymous in the
/// standard multiset sense.
///
/// The exact minimal-cell-suppression problem is NP-hard [13]; this is a
/// greedy heuristic: while undersized groups remain, suppress — in every
/// violating tuple — the quasi-identifier attribute with the most distinct
/// values among the violating tuples, merging them into larger groups.
/// Tuples still violating after all their QID cells are suppressed are
/// removed.
///
/// `ctx` carries the execution parameters (docs/API.md). The recoder polls
/// the governor per suppression round and charges each round's grouping
/// structure against its memory budget: ctx.governor, or a private unlimited one when it is
/// null, so a default RunContext never trips and reports zero trip
/// counters. A budget trip returns PartialResult::Partial with an EMPTY view (the
/// intermediate recoding is not yet k-anonymous and must not be released);
/// only the stats carry the progress made. The algorithm is
/// single-threaded: ctx.num_threads is ignored.
PartialResult<CellSuppressionResult> RunCellSuppression(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const RunContext& ctx = {});

}  // namespace incognito

#endif  // INCOGNITO_MODELS_CELL_SUPPRESSION_H_
