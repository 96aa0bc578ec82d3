#ifndef INCOGNITO_MODELS_DATAFLY_H_
#define INCOGNITO_MODELS_DATAFLY_H_

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "lattice/node.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// Output of the Datafly heuristic.
struct DataflyResult {
  /// The full-domain generalization the greedy search stopped at.
  SubsetNode node;
  /// The released view (generalized, outliers suppressed).
  Table view;
  int64_t suppressed_tuples = 0;
  AlgorithmStats stats;
};

/// Sweeney's Datafly algorithm (paper §6, [17]): a greedy full-domain
/// heuristic that repeatedly generalizes the attribute with the most
/// distinct values in the current (partially generalized) table until at
/// most max(k, max_suppressed) tuples violate k-anonymity, then suppresses
/// those outliers. The result is guaranteed k-anonymous but — unlike
/// Incognito — carries no minimality guarantee; the model-comparison bench
/// quantifies the quality gap.
///
/// `ctx` carries the execution parameters (docs/API.md). The walk polls
/// the governor per greedy generalization step and charges each step's
/// frequency set against its memory budget: ctx.governor, or a private unlimited one when it is
/// null, so a default RunContext never trips and reports zero trip
/// counters. A budget trip returns PartialResult::Partial carrying the node the greedy walk
/// had reached — but an EMPTY view and suppressed_tuples == 0, because
/// Datafly's intermediate state is NOT yet k-anonymous and must not be
/// released. The algorithm is single-threaded: ctx.num_threads is
/// ignored.
PartialResult<DataflyResult> RunDatafly(const Table& table,
                                        const QuasiIdentifier& qid,
                                        const AnonymizationConfig& config,
                                        const RunContext& ctx = {});

}  // namespace incognito

#endif  // INCOGNITO_MODELS_DATAFLY_H_
