#ifndef INCOGNITO_CORE_LDIVERSITY_H_
#define INCOGNITO_CORE_LDIVERSITY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/run_context.h"
#include "lattice/node.h"
#include "relation/table.h"
#include "robust/partial_result.h"

namespace incognito {

/// Configuration for the ℓ-diversity extension.
struct LDiversityConfig {
  /// Minimum tuples per group (k-anonymity); 1 disables the count bound.
  int64_t k = 1;
  /// Minimum distinct sensitive values per group (distinct ℓ-diversity).
  int64_t l = 2;
  /// Suppression budget shared by both criteria.
  int64_t max_suppressed = 0;
  /// Name of the sensitive column (must not be in the quasi-identifier).
  std::string sensitive_attribute;
};

/// Output of the ℓ-diversity search.
struct LDiversityResult {
  /// Every full-QID generalization satisfying distinct ℓ-diversity (and
  /// k-anonymity when k > 1) — complete, like the k-anonymity search.
  std::vector<SubsetNode> diverse_nodes;

  /// Iterations (attribute-subset sizes) fully processed. Equals
  /// qid.size() on a complete run; smaller when a governed run tripped a
  /// budget mid-search, in which case diverse_nodes is empty (no complete
  /// S_n was proven).
  int64_t completed_iterations = 0;

  AlgorithmStats stats;
};

/// Incognito-style search for (distinct) ℓ-diverse full-domain
/// generalizations — the paper's "extending the algorithmic framework ...
/// to some of these novel alternatives" future work, as pursued by the
/// ℓ-diversity line of follow-up papers, which reuse exactly this lattice
/// search. Distinct ℓ-diversity satisfies both the Generalization and
/// Subset properties (merging groups can only grow a group's set of
/// sensitive values), so the a-priori candidate-graph machinery and
/// bottom-up rollup apply unchanged.
///
/// `ctx` carries the execution parameters (docs/API.md): a default
/// RunContext reproduces the ungoverned call. With ctx.governor set, the
/// search polls the governor at every candidate node and charges each
/// sensitive frequency set against its memory budget; a budget trip stops
/// the search cleanly and returns PartialResult::Partial with
/// diverse_nodes EMPTY and completed_iterations recording how many
/// subset-size iterations finished (the same contract as RunIncognito's
/// governed path). The algorithm is single-threaded: ctx.num_threads is
/// ignored.
PartialResult<LDiversityResult> RunLDiversityIncognito(
    const Table& table, const QuasiIdentifier& qid,
    const LDiversityConfig& config, const RunContext& ctx = {});

/// The released (k, ℓ)-private view.
struct DiverseRecodeResult {
  Table view;
  int64_t suppressed_tuples = 0;
};

/// Materializes the full-domain generalization `node` with BOTH criteria
/// enforced: equivalence classes smaller than k or with fewer than ℓ
/// distinct sensitive values are suppressed (within the configured
/// budget; fails with FailedPrecondition otherwise). The counterpart of
/// ApplyFullDomainGeneralization for results of RunLDiversityIncognito.
Result<DiverseRecodeResult> ApplyDiverseGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const LDiversityConfig& config);

}  // namespace incognito

#endif  // INCOGNITO_CORE_LDIVERSITY_H_
