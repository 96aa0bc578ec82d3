#ifndef INCOGNITO_FREQ_SUBSTRATE_H_
#define INCOGNITO_FREQ_SUBSTRATE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "freq/key_codec.h"

namespace incognito {

/// The group-by engine of one FrequencySet::Compute call, and nothing else.
/// Every other build, the searches' included, picks its engine from the
/// key width alone: a key that packs into 64 bits runs the count-or-sort
/// kernel, a wider one the flat arena map (DESIGN.md "Group-by
/// substrates"). The mode exists only because the end-to-end benchmark
/// (`freq.hash_rows_per_s`, `freq.radix_rows_per_s`) and the micro bench's
/// `radix_speedup_narrow` time the two engines through this call; it goes,
/// with the reference scan behind kHash, once those metrics do.
enum class SubstrateMode {
  kHash,   ///< a serial std::unordered_map reference scan (packed keys)
  kRadix,  ///< count-or-sort over packed keys (flat arena map when wide)
  kAuto,   ///< the default; resolves exactly like kRadix
};

// --- Radix kernels (packed uint64 keys) ---

/// Columnar key gather: packs rows [begin, end) of the mapped code columns
/// into `out` exactly as per-row KeyCodec::Pack would, but column-outer —
/// each dimension's fold is a tight contiguous loop over the chunk with no
/// per-row re-dispatch, which is what lets the compiler vectorize it.
void GatherPackedKeys(const std::vector<const int32_t*>& cols,
                      const std::vector<const int32_t*>& maps,
                      const KeyCodec& codec, size_t begin, size_t end,
                      std::vector<uint64_t>* out);

/// LSD radix sort (8-bit digits) over the low `total_bits` bits of `keys`,
/// ascending. `scratch` is the ping-pong buffer, resized to keys.size().
/// All digit histograms come from one pre-pass, and digits whose histogram
/// is a single bucket are skipped, so constant high bytes cost nothing.
/// When `tick` is set it is polled before every scatter pass; returning
/// false abandons the sort (keys left in an unspecified permutation) and
/// makes RadixSortKeys return false — the governed scans' mid-sort trip.
bool RadixSortKeys(std::vector<uint64_t>& keys, std::vector<uint64_t>& scratch,
                   size_t total_bits,
                   const std::function<bool()>& tick = nullptr);

/// Weighted twin for (key, count) pairs (projection inputs). Stable, so
/// equal keys keep their input order; callers coalesce afterwards.
bool RadixSortCounted(std::vector<std::pair<uint64_t, int64_t>>& items,
                      std::vector<std::pair<uint64_t, int64_t>>& scratch,
                      size_t total_bits,
                      const std::function<bool()>& tick = nullptr);

/// Run-length extracts sorted `keys` into (key, count) groups appended to
/// `out` with an exact-capacity reserve (pass it empty to get capacity ==
/// group count, the capacity MemoryBytes() expects). Returns the number of
/// groups appended.
size_t ExtractGroups(const std::vector<uint64_t>& keys,
                     std::vector<std::pair<uint64_t, int64_t>>* out);

// --- Flat arena map (wide / vector keys) ---

/// Open-addressing group map for keys that do not fit a uint64:
/// fixed-width int32 code vectors stored back-to-back in one arena (one
/// allocation for all keys instead of one heap node per group), linear
/// probing over a power-of-two slot table, FNV-1a over the codes.
class FlatCodeMap {
 public:
  /// `width` is the number of codes per key; `expected` pre-sizes the slot
  /// table for about that many groups.
  explicit FlatCodeMap(size_t width, size_t expected = 0);

  /// Adds `count` to the group keyed by codes[0..width).
  void Add(const int32_t* codes, int64_t count);

  size_t size() const { return counts_.size(); }

  /// Current heap footprint (arena + counts + slot-table capacities) —
  /// what a governed scan charges for this map. Grows monotonically.
  size_t MemoryBytes() const;

  /// Appends every group as (code-vector, count) in insertion order; the
  /// key vectors are exact-sized copies out of the arena.
  void AppendTo(
      std::vector<std::pair<std::vector<int32_t>, int64_t>>* out) const;

 private:
  void Grow();

  size_t width_;
  std::vector<int32_t> arena_;   ///< group keys, width_ codes each
  std::vector<int64_t> counts_;  ///< per-group counts, insertion order
  std::vector<uint32_t> slots_;  ///< group id + 1; 0 = empty
  size_t mask_ = 0;              ///< slots_.size() - 1
};

}  // namespace incognito

#endif  // INCOGNITO_FREQ_SUBSTRATE_H_
