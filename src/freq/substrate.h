#ifndef INCOGNITO_FREQ_SUBSTRATE_H_
#define INCOGNITO_FREQ_SUBSTRATE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "freq/key_codec.h"

namespace incognito {

class WorkerPool;

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

// --- Bucket sort (packed uint64 keys) ---

/// Columnar key gather: packs rows [begin, end) of the mapped code columns
/// into out[0, end - begin) exactly as per-row KeyCodec::Pack would, but
/// column-outer — each dimension's fold is a tight contiguous loop over the
/// rows with no per-row re-dispatch, which is what lets the compiler
/// vectorize it.
void GatherPackedKeys(const std::vector<const int32_t*>& cols,
                      const std::vector<const int32_t*>& maps,
                      const KeyCodec& codec, size_t begin, size_t end,
                      uint64_t* out);

/// Keys per bucket of a partitioned sort: 2^15 keys, 256 KiB of 8-byte keys
/// plus as much sort temp, which stays in a core's L2 while the bucket is
/// sorted. The one size constant of the bucket sort (DESIGN.md "Group-by
/// substrates").
constexpr size_t kBucketKeys = size_t{1} << 15;

/// The bucket bits h of a sort of `n` keys of `total_bits`, on `chunks`
/// row chunks: the largest h with n >> h ≥ kBucketKeys, so a bucket holds
/// 2^15 to 2^16 keys on average, and 0 below 2 × kBucketKeys keys. With
/// chunks > 1, at least enough bits for 4 × chunks buckets, so the chunks
/// share the bucket sorts even when the size rule gives one bucket. Never
/// more than total_bits.
size_t BucketBits(size_t n, size_t total_bits, size_t chunks);

/// One (packed key, count) entry of the counted form. Trivially
/// constructible, so a buffer of them is allocated without being zeroed.
struct CountedKey {
  uint64_t key;
  int64_t count;
};

/// What a sort polls and charges; an empty member polls or charges
/// nothing. Every member may be called from any worker at once.
struct SortHooks {
  std::function<bool()> tick;            ///< false abandons the sort
  std::function<bool(int64_t)> charge;   ///< false refuses the bytes
  std::function<void(int64_t)> release;  ///< returns charged bytes
};

/// Writes the items of inputs [begin, end) to out[0, end - begin): the
/// keys of those rows, or the (target key, count) of those source groups.
template <typename Item>
using ItemSource = std::function<void(size_t begin, size_t end, Item* out)>;

/// Groups the `n` items of `source` (keys < 2^total_bits) into `out`, empty
/// on entry, as ascending unique keys with their counts — a key's count is
/// its number of items in the keys form and the sum of its items' counts
/// in the counted form — with an exact reserve, so the capacity is the
/// group count. `buffer` holds at least n items; the caller allocates it
/// and may reuse it across sorts. On success buffer[0, n) holds the items
/// sorted by key, stably: equal keys keep their source order.
///
/// The bucket sort: one histogram of the top `bucket_bits` key bits (at
/// most total_bits), one stable scatter into `buffer`, bucket-major; then each bucket is sorted
/// on its low bits while it sits in L2 (8-bit LSD digits from one
/// histogram pre-pass, single-bucket digits skipped) and its unique keys
/// counted, and the groups are run-length emitted. At bucket_bits 0 the
/// source is gathered once, straight into the buffer, and sorted whole.
/// With a pool of C workers, worker c histograms and scatters the pool's
/// static row chunk c at its (bucket, chunk) offsets, and the workers
/// claim disjoint bucket ranges to sort; the groups do not depend on C or
/// on bucket_bits.
///
/// `hooks.tick` is polled between phases, every 16,384 items while
/// gathering and every few buckets while sorting; a refused tick or
/// charge abandons the sort, releases everything the sort charged, and
/// returns false with `out` empty. Each worker charges its sort temp (the
/// largest bucket's items) before allocating it and releases it when the
/// sorting ends; the groups are charged before `out` is reserved, and that
/// charge stays with the caller on success.
bool BucketSortKeys(size_t n, size_t total_bits, size_t bucket_bits,
                    const ItemSource<uint64_t>& source, const SortHooks& hooks,
                    WorkerPool* pool, uint64_t* buffer,
                    std::vector<std::pair<uint64_t, int64_t>>* out);

/// The counted form of BucketSortKeys: stable, and equal keys' counts are
/// summed.
bool BucketSortCounted(size_t n, size_t total_bits, size_t bucket_bits,
                       const ItemSource<CountedKey>& source,
                       const SortHooks& hooks, WorkerPool* pool,
                       CountedKey* buffer,
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
