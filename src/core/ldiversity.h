#ifndef INCOGNITO_CORE_LDIVERSITY_H_
#define INCOGNITO_CORE_LDIVERSITY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "core/recoder.h"
#include "core/run_context.h"
#include "freq/frequency_set.h"
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

  /// The search's counters. table_scans counts batched scans, one per
  /// subset front or lattice-level batch, as for RunIncognito;
  /// freq_groups_built counts (equivalence class, sensitive value) groups.
  AlgorithmStats stats;
};

/// The key QID of the ℓ-diversity search (docs/ALGORITHMS.md §9): the
/// search QID's attributes followed by the sensitive column, held at level
/// 0 by a one-level (height-0) hierarchy over its own dictionary. A
/// frequency set over it groups T by (equivalence class, sensitive value).
/// KeyCodec::Pack preserves order and the sensitive field packs lowest, so
/// one class's groups form a contiguous run in canonical order: the run's
/// summed count is the class size and its length the number of distinct
/// sensitive values (FrequencySet::TuplesViolatingDiversity). The sensitive
/// column's bits join every key, so a high-cardinality column can push a
/// key past 64 bits onto the vector-key path.
class DiversityKey {
 public:
  /// Checks the ℓ-diversity arguments — k >= 1, ℓ >= 1, max_suppressed
  /// >= 0, 1 <= qid.size() <= kMaxQidAttributes, and a sensitive column
  /// that exists (NotFound otherwise) and is not in the QID — and builds
  /// the key QID. Every violation but the unknown column is
  /// InvalidArgument.
  static Result<DiversityKey> Create(const Table& table,
                                     const QuasiIdentifier& qid,
                                     const LDiversityConfig& config);

  /// The search QID's attributes, then the sensitive column.
  const QuasiIdentifier& qid() const { return qid_; }

  /// `node`, a node over the search QID, with the sensitive dimension
  /// appended at level 0.
  SubsetNode KeyNode(SubsetNode node) const;

  /// The key-QID frequency set of `node` (over the search QID), from one
  /// scan of T.
  FrequencySet Compute(const Table& table, const SubsetNode& node) const;

  /// Visits the equivalence classes of a key-QID frequency set in
  /// canonical order: the class's codes on the search dims of its node,
  /// its tuple count, and its number of distinct sensitive values.
  static void ForEachClass(
      const FrequencySet& set,
      const std::function<void(const int32_t* codes, int64_t tuples,
                               int64_t distinct)>& fn);

 private:
  QuasiIdentifier qid_;
};

/// Incognito-style search for (distinct) ℓ-diverse full-domain
/// generalizations — the paper's "extending the algorithmic framework ...
/// to some of these novel alternatives" future work, as pursued by the
/// ℓ-diversity line of follow-up papers, which reuse exactly this lattice
/// search. Distinct ℓ-diversity satisfies both the Generalization and
/// Subset properties (merging groups can only grow a group's set of
/// sensitive values), so the a-priori candidate-graph machinery and
/// bottom-up rollup apply unchanged: the search is RunIncognito's subset
/// DAG (core/parallel.h) over DiversityKey's frequency sets, run as Basic
/// Incognito with the default IncognitoOptions. Arguments are checked as
/// in DiversityKey::Create, before any work.
///
/// `ctx` carries the execution parameters (docs/API.md): a default
/// RunContext reproduces the ungoverned call. ctx.num_threads (0 means 1)
/// sizes the worker pool; every thread count returns the same
/// diverse_nodes and counters. With
/// ctx.governor set, the search polls the governor at every candidate node
/// and charges each frequency set against its memory budget through
/// per-worker shard leases; a budget trip stops the search cleanly and
/// returns PartialResult::Partial with diverse_nodes EMPTY and
/// completed_iterations recording how many subset sizes finished (the same
/// contract as RunIncognito's governed path). ctx.checkpoint is ignored:
/// the checkpoint fingerprint cannot name ℓ or the sensitive column.
PartialResult<LDiversityResult> RunLDiversityIncognito(
    const Table& table, const QuasiIdentifier& qid,
    const LDiversityConfig& config, const RunContext& ctx = {});

/// Materializes the full-domain generalization `node` with BOTH criteria
/// enforced: equivalence classes smaller than k or with fewer than ℓ
/// distinct sensitive values are suppressed (within the configured
/// budget; fails with FailedPrecondition otherwise). The counterpart of
/// ApplyFullDomainGeneralization for results of RunLDiversityIncognito.
Result<RecodeResult> ApplyDiverseGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const LDiversityConfig& config);

}  // namespace incognito

#endif  // INCOGNITO_CORE_LDIVERSITY_H_
