#ifndef INCOGNITO_FREQ_FREQUENCY_SET_H_
#define INCOGNITO_FREQ_FREQUENCY_SET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/quasi_identifier.h"
#include "freq/key_codec.h"
#include "freq/substrate.h"
#include "lattice/node.h"
#include "relation/table.h"

namespace incognito {

class ExecutionGovernor;
class WorkerPool;

/// The frequency set of a table with respect to a generalization node
/// (paper §1.1): a mapping from each value-group (the combination of
/// generalized quasi-identifier values) to the number of tuples carrying
/// those values. Equivalent to the result of
///   SELECT <generalized attrs>, COUNT(*) FROM T GROUP BY <generalized attrs>
/// over the star schema.
///
/// Storage is a flat array of (packed-key, count) entries when the combined
/// key fits in 64 bits (it does for both evaluation schemas), with a
/// vector-keyed fallback otherwise. Groups are kept in canonical order —
/// ascending lexicographic code vectors, which for the packed path is the
/// same as ascending packed keys because KeyCodec::Pack is
/// order-preserving — so serial, parallel, and cross-platform runs agree
/// byte-for-byte.
class FrequencySet {
 public:
  FrequencySet() = default;

  /// Computes the frequency set by scanning the table once — the paper's
  /// COUNT(*) GROUP BY query. `node` selects the participating attributes
  /// (dims, as QID indices) and the generalization level of each. A serial,
  /// ungoverned batch of one over ComputeBatch.
  ///
  /// `substrate` serves only the two benches that time the group-by
  /// engines (freq/substrate.h): kHash on a packed key runs a serial
  /// std::unordered_map reference scan instead of the batch, and produces
  /// the identical set, MemoryBytes() included. Every other mode and key
  /// is the batch.
  static FrequencySet Compute(const Table& table, const QuasiIdentifier& qid,
                              const SubsetNode& node,
                              SubstrateMode substrate = SubstrateMode::kAuto);

  /// Scan-sharing batch build (docs/PARALLELISM.md "Scan-sharing batch
  /// evaluation"): computes the frequency sets of several nodes from one
  /// scan of the table's shared, encoded columns, so a whole lattice
  /// level's scan-required nodes cost one scan instead of one each. Each
  /// node's key width picks its engine (DESIGN.md "Group-by substrates"):
  /// a packed node gathers its keys column by column, then counts them
  /// into a key-indexed array when 2^bits ≤ 2 × rows (rows / workers when
  /// pooled), and radix-sorts them otherwise; a node whose key is wider
  /// than 64 bits is aggregated row by row into a FlatCodeMap. result[j]
  /// is bit-identical to Compute(table, qid, nodes[j]), including the
  /// canonical group order and the exact MemoryBytes().
  ///
  /// With a non-null `pool` of size > 1 the rows are statically chunked
  /// across the workers (docs/PARALLELISM.md "Intra-node parallelism"):
  /// each aggregates its chunk into thread-local per-node state, then the
  /// partials merge in worker-id order — count arrays by summing, the rest
  /// with one canonical sort — using an exact reserve so the result is
  /// bit-identical to the serial scan at any thread count. When `governor`
  /// is non-null the scan is governed: the parallel path charges every
  /// node's running footprint to transient per-worker shards (drained
  /// before returning) and polls for trips every few thousand rows; a
  /// worker's count arrays and sort buffers are charged before they are
  /// allocated. Both paths consult the "freq.batch.scan" fault site (once
  /// per chunk when parallel, once up front when serial). A tripped batch
  /// latches the governor and returns all-empty sets; callers detect it
  /// via governor->SharedTrip().
  static std::vector<FrequencySet> ComputeBatch(
      const Table& table, const QuasiIdentifier& qid,
      const std::vector<SubsetNode>& nodes, WorkerPool* pool = nullptr,
      ExecutionGovernor* governor = nullptr);

  /// Produces the frequency set of a more general node over the same
  /// attribute set *from this frequency set* without touching the table —
  /// the paper's Rollup Property: each target count is the sum of the
  /// source counts γ maps onto it. Requires target.dims == node().dims and
  /// target.levels[i] >= node().levels[i].
  FrequencySet RollupTo(const SubsetNode& target,
                        const QuasiIdentifier& qid) const;

  /// Produces the frequency set of a *subset* of the attributes at the
  /// same levels, by summing away the dropped dimensions (data-cube style
  /// aggregation; the Subset Property's relational counterpart, used to
  /// build the zero-generalization cube). Requires target.dims ⊆
  /// node().dims and matching levels on the kept dims.
  FrequencySet ProjectTo(const SubsetNode& target,
                         const QuasiIdentifier& qid) const;

  /// The generalization this frequency set is with respect to.
  const SubsetNode& node() const { return node_; }

  /// Number of value groups.
  size_t NumGroups() const {
    return packed_ ? groups_.size() : vgroups_.size();
  }

  /// Total tuple count (the table size minus nothing; invariant under
  /// rollup and projection).
  int64_t TotalCount() const { return total_count_; }

  /// The smallest group count; 0 for an empty frequency set.
  int64_t MinCount() const;

  /// Number of tuples lying in groups of size < k — the number of tuples
  /// that would have to be suppressed for T to satisfy k-anonymity at this
  /// generalization.
  int64_t TuplesBelowK(int64_t k) const;

  /// K-anonymity check with the paper's optional tuple-suppression
  /// threshold: true iff at most `max_suppressed` tuples lie in groups
  /// smaller than k (with max_suppressed == 0 this is the plain
  /// K-Anonymity Property).
  bool IsKAnonymous(int64_t k, int64_t max_suppressed = 0) const {
    return TuplesBelowK(k) <= max_suppressed;
  }

  /// Distinct ℓ-diversity's violation count, for a set whose last
  /// dimension is a sensitive attribute at level 0 (core/ldiversity.h's key
  /// QID). An equivalence class is a run of consecutive groups that agree
  /// on every field but that last one — contiguous in canonical order,
  /// since the sensitive field packs lowest. Its summed count is the class
  /// size and its length the number of distinct sensitive values. Returns
  /// the tuples in classes smaller than k or with fewer than ℓ values.
  int64_t TuplesViolatingDiversity(int64_t k, int64_t l) const;

  /// Visits every group as (codes, count) in canonical order (ascending
  /// lexicographic code vectors); `codes` has node().size() entries, each
  /// a code in the corresponding level's domain.
  void ForEachGroup(
      const std::function<void(const int32_t* codes, int64_t count)>& fn)
      const;

  /// Approximate heap footprint in bytes (for the cube-size diagnostics).
  size_t MemoryBytes() const;

 private:
  static FrequencySet MakeEmpty(const SubsetNode& node,
                                const QuasiIdentifier& qid);

  /// Compute's kHash scan of an empty packed set: per-row Pack into a
  /// std::unordered_map, assigned out and sorted.
  void HashReferenceScan(const Table& table, const QuasiIdentifier& qid);

  /// The one aggregation of a set built from another, behind RollupTo and
  /// ProjectTo: target field j holds remap[j][c] for the code c of the
  /// source field over the same dimension, and source dimensions missing
  /// from target.dims (an ordered subset of node().dims) are summed away.
  /// Packed targets are counted into a key-indexed array or radix-sorted
  /// by the scans' count-or-sort rule; vector targets go through a
  /// FlatCodeMap. Either way the reserve is exact, so the result is
  /// bit-identical to a scan at `target`, MemoryBytes() included.
  FrequencySet RegroupTo(const SubsetNode& target, const QuasiIdentifier& qid,
                         const std::vector<std::vector<int32_t>>& remap) const;

  /// Sorts groups_/vgroups_ into canonical order (see class comment).
  void SortGroups();

  SubsetNode node_;
  KeyCodec codec_;
  bool packed_ = true;
  std::vector<std::pair<uint64_t, int64_t>> groups_;  // packed path
  std::vector<std::pair<std::vector<int32_t>, int64_t>> vgroups_;  // fallback
  int64_t total_count_ = 0;
};

}  // namespace incognito

#endif  // INCOGNITO_FREQ_FREQUENCY_SET_H_
