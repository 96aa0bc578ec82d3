#ifndef INCOGNITO_MODELS_MONDRIAN_H_
#define INCOGNITO_MODELS_MONDRIAN_H_

#include <cstdint>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// Output of the Mondrian partitioner.
struct MondrianResult {
  Table view;
  size_t num_partitions = 0;

  /// Split steps evaluated plus governor activity (governed runs).
  AlgorithmStats stats;
};

/// Multi-Dimension Ordered-Set Partitioning (paper §5.1.4) realized by the
/// greedy median-split algorithm of the authors' follow-up work
/// ("Multidimensional k-anonymity", reference [12] — later known as
/// Mondrian): the quasi-identifier value space is recursively partitioned
/// on the dimension with the widest normalized extent, splitting at the
/// median, as long as both halves keep at least k tuples. Each final
/// partition is released as a multi-dimensional interval.
///
/// Requires table.num_rows() >= k (otherwise no partitioning exists).
/// The paper cites [12] for evidence that multi-dimension models "might
/// produce better anonymizations than their single-dimension
/// counterparts"; the model-comparison bench quantifies this.
///
/// `ctx` carries the execution parameters (docs/API.md). The partitioner
/// polls the governor once per split step: ctx.governor, or a private unlimited one when it is
/// null, so a default RunContext never trips and reports zero trip
/// counters. On a budget trip, refinement stops and every unrefined partition is released
/// as-is — the partial view is COARSER than the full answer but still
/// k-anonymous (every partition holds >= k tuples by construction), the
/// model's graceful degradation. The algorithm is single-threaded:
/// ctx.num_threads is ignored.
PartialResult<MondrianResult> RunMondrian(const Table& table,
                                          const QuasiIdentifier& qid,
                                          const AnonymizationConfig& config,
                                          const RunContext& ctx = {});

}  // namespace incognito

#endif  // INCOGNITO_MODELS_MONDRIAN_H_
