#ifndef INCOGNITO_CORE_RECODER_H_
#define INCOGNITO_CORE_RECODER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "lattice/node.h"
#include "relation/table.h"

namespace incognito {

/// The anonymized view produced by applying a full-domain generalization.
struct RecodeResult {
  /// The k-anonymized view V of T: quasi-identifier values replaced by
  /// their φ_i images at the node's levels, outlier tuples (groups smaller
  /// than k) suppressed when the configuration allows. Non-QID columns are
  /// carried through unchanged.
  Table view;

  /// Number of tuples removed under the suppression threshold.
  int64_t suppressed_tuples = 0;
};

/// Materializes the full-domain generalization `node` of `table` — the
/// paper's "joining T with its dimension tables and projecting the
/// appropriate domain attributes". Requires `node` to be over the full
/// quasi-identifier. Fails with FailedPrecondition if the generalization
/// does not satisfy k-anonymity within the configured suppression budget
/// (so a successful call always returns a k-anonymous view).
///
/// Columns generalized to level > 0 become string-typed (the generalized
/// labels, e.g. "[20-29]", "5371*"); level-0 columns keep their values.
Result<RecodeResult> ApplyFullDomainGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const AnonymizationConfig& config);

/// The release step of both full-domain recoders: `table` at the full-QID
/// node `node`, with every QID column above level 0 replaced by its
/// level's labels, less the rows whose generalized QID codes are one of
/// the keys in `suppressed` — node.size() codes per key, keys in ascending
/// lexicographic order (a frequency set's canonical order). Checks nothing.
RecodeResult ReleaseFullDomainView(const Table& table,
                                   const QuasiIdentifier& qid,
                                   const SubsetNode& node,
                                   const std::vector<int32_t>& suppressed);

}  // namespace incognito

#endif  // INCOGNITO_CORE_RECODER_H_
