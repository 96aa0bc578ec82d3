#include "freq/substrate.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <memory>

#include "core/worker_pool.h"

namespace incognito {

void GatherPackedKeys(const std::vector<const int32_t*>& cols,
                      const std::vector<const int32_t*>& maps,
                      const KeyCodec& codec, size_t begin, size_t end,
                      uint64_t* out) {
  assert(codec.packed());
  const size_t count = end - begin;
  std::fill(out, out + count, uint64_t{0});
  for (size_t d = 0; d < codec.num_dims(); ++d) {
    const uint8_t bits = codec.bits(d);
    const int32_t* col = cols[d] + begin;
    const int32_t* map = maps[d];
    for (size_t i = 0; i < count; ++i) {
      const uint64_t code = static_cast<uint64_t>(map[col[i]]);
      assert(bits >= 64 || (code >> bits) == 0);
      out[i] = (out[i] << bits) | code;
    }
  }
}

size_t BucketBits(size_t n, size_t total_bits, size_t chunks) {
  size_t bits = 0;
  while ((n >> (bits + 1)) >= kBucketKeys) ++bits;
  if (chunks > 1) {
    size_t shared = 0;
    while ((size_t{1} << shared) < 4 * chunks) ++shared;
    bits = std::max(bits, shared);
  }
  return std::min(bits, total_bits);
}

namespace {

/// Items gathered at once to be histogrammed or scattered: 2,048 of them,
/// 16 or 32 KB, which stays in L1.
constexpr size_t kGatherItems = 2048;
/// Items gathered between polls of the tick.
constexpr size_t kTickItems = 16384;
static_assert(kTickItems % kGatherItems == 0);
/// Buckets sorted between polls of the tick.
constexpr size_t kTickBuckets = 4;

uint64_t KeyOf(uint64_t key) { return key; }
uint64_t KeyOf(const CountedKey& item) { return item.key; }
int64_t CountOf(uint64_t) { return 1; }
int64_t CountOf(const CountedKey& item) { return item.count; }

/// True when the digit's histogram puts every item in one bucket, so the
/// scatter pass would be the identity permutation.
bool SingleBucket(const size_t* h, size_t n) {
  for (size_t b = 0; b < 256; ++b) {
    if (h[b] == n) return true;
    if (h[b] != 0) return false;
  }
  return n == 0;
}

/// Sorts items[0, n) stably on their low `bits` bits by LSD radix (8-bit
/// digits, every digit's histogram from one pre-pass, single-bucket digits
/// skipped), ping-ponging through `temp` (n items; untouched when n < 2);
/// the sorted run ends in `items`. Returns the number of unique keys.
template <typename Item>
size_t SortBucket(Item* items, Item* temp, size_t n, size_t bits) {
  if (n == 0) return 0;
  const size_t passes = (bits + 7) / 8;
  if (n >= 2 && passes > 0) {
    size_t hist[8][256];
    std::memset(hist, 0, passes * sizeof(hist[0]));
    for (size_t i = 0; i < n; ++i) {
      uint64_t k = KeyOf(items[i]);
      for (size_t p = 0; p < passes; ++p) {
        ++hist[p][k & 0xff];
        k >>= 8;
      }
    }
    Item* src = items;
    Item* dst = temp;
    for (size_t p = 0; p < passes; ++p) {
      if (SingleBucket(hist[p], n)) continue;
      size_t offsets[256];
      size_t sum = 0;
      for (size_t b = 0; b < 256; ++b) {
        offsets[b] = sum;
        sum += hist[p][b];
      }
      const size_t shift = p * 8;
      for (size_t i = 0; i < n; ++i) {
        dst[offsets[(KeyOf(src[i]) >> shift) & 0xff]++] = src[i];
      }
      std::swap(src, dst);
    }
    if (src != items) std::memcpy(items, src, n * sizeof(Item));
  }
  size_t unique = 1;
  for (size_t i = 1; i < n; ++i) {
    unique += KeyOf(items[i]) != KeyOf(items[i - 1]);
  }
  return unique;
}

template <typename Item>
bool BucketSort(size_t n, size_t total_bits, size_t bucket_bits,
                const ItemSource<Item>& source, const SortHooks& hooks,
                WorkerPool* pool, Item* buffer,
                std::vector<std::pair<uint64_t, int64_t>>* out) {
  assert(out->empty());
  assert(bucket_bits <= total_bits);
  if (n == 0) return true;
  const size_t chunks = pool != nullptr ? static_cast<size_t>(pool->size()) : 1;
  const size_t buckets = size_t{1} << bucket_bits;
  // The low bits each bucket sorts on; a key's bucket is the rest (shifted
  // only when bucket_bits > 0, so the shift stays below 64).
  const size_t low_bits = total_bits - bucket_bits;
  // Each phase runs on every worker of a pool, or inline on one chunk.
  auto run = [&](size_t items,
                 const std::function<void(int, size_t, size_t)>& phase) {
    if (chunks > 1) {
      pool->Run(items, phase);
    } else {
      phase(0, 0, items);
    }
  };
  std::atomic<bool> failed{false};
  auto tick = [&] {
    if (failed.load()) return false;
    if (hooks.tick && !hooks.tick()) failed.store(true);
    return !failed.load();
  };

  // Histogram: chunk c's count of bucket b at offsets[c * buckets + b]. One
  // bucket needs no gather: it holds each chunk's rows.
  std::vector<size_t> offsets(chunks * buckets, 0);
  if (!tick()) return false;
  if (bucket_bits == 0) {
    for (size_t c = 0; c < chunks; ++c) {
      offsets[c] = n * (c + 1) / chunks - n * c / chunks;
    }
  } else {
    run(n, [&](int worker, size_t begin, size_t end) {
      size_t* hist = offsets.data() + static_cast<size_t>(worker) * buckets;
      Item block[kGatherItems] = {};
      for (size_t r = begin; r < end; r += kGatherItems) {
        if ((r - begin) % kTickItems == 0 && !tick()) return;
        const size_t e = std::min(end, r + kGatherItems);
        source(r, e, block);
        for (size_t i = 0; i < e - r; ++i) ++hist[KeyOf(block[i]) >> low_bits];
      }
    });
  }
  if (!tick()) return false;

  // Bucket-major, chunk-minor offsets, so every chunk's rows of a bucket
  // follow the previous chunk's and the scatter is stable.
  std::vector<size_t> start(buckets + 1);
  size_t placed = 0;
  size_t largest = 0;
  for (size_t b = 0; b < buckets; ++b) {
    start[b] = placed;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t count = offsets[c * buckets + b];
      offsets[c * buckets + b] = placed;
      placed += count;
    }
    largest = std::max(largest, placed - start[b]);
  }
  start[buckets] = placed;
  assert(placed == n);

  // Scatter: the second gather places each item at its bucket's next slot.
  run(n, [&](int worker, size_t begin, size_t end) {
    size_t* next = offsets.data() + static_cast<size_t>(worker) * buckets;
    Item block[kGatherItems] = {};
    for (size_t r = begin; r < end; r += kGatherItems) {
      if ((r - begin) % kTickItems == 0 && !tick()) return;
      const size_t e = std::min(end, r + kGatherItems);
      if (bucket_bits == 0) {
        source(r, e, buffer + r);
        continue;
      }
      source(r, e, block);
      for (size_t i = 0; i < e - r; ++i) {
        buffer[next[KeyOf(block[i]) >> low_bits]++] = block[i];
      }
    }
  });
  if (!tick()) return false;

  // Sort each bucket while it sits in L2 and count its unique keys. The
  // workers claim disjoint ranges of buckets by index; each charges its
  // temp, sized for the largest bucket, before its first sort.
  std::vector<size_t> unique(buckets, 0);
  const size_t ranges = chunks > 1 ? std::min(buckets, 4 * chunks) : 1;
  std::atomic<size_t> next_range{0};
  run(chunks, [&](int, size_t, size_t) {
    std::unique_ptr<Item[]> temp;
    int64_t temp_bytes = 0;
    size_t sorted = 0;
    for (size_t r = next_range.fetch_add(1); r < ranges;
         r = next_range.fetch_add(1)) {
      for (size_t b = buckets * r / ranges; b < buckets * (r + 1) / ranges;
           ++b) {
        if (sorted++ % kTickBuckets == 0 && !tick()) break;
        const size_t size = start[b + 1] - start[b];
        if (size > 1 && low_bits > 0 && temp == nullptr) {
          const int64_t bytes = static_cast<int64_t>(largest * sizeof(Item));
          if (hooks.charge && !hooks.charge(bytes)) {
            failed.store(true);
            break;
          }
          temp_bytes = bytes;
          temp = std::make_unique_for_overwrite<Item[]>(largest);
        }
        unique[b] = SortBucket(buffer + start[b], temp.get(), size, low_bits);
      }
      if (failed.load()) break;
    }
    temp.reset();
    if (temp_bytes > 0 && hooks.release) hooks.release(temp_bytes);
  });
  if (!tick()) return false;

  // The buckets lie in key order, so the buffer is one sorted run:
  // run-length emit it with an exact reserve.
  size_t groups = 0;
  for (size_t u : unique) groups += u;
  if (hooks.charge &&
      !hooks.charge(static_cast<int64_t>(groups * sizeof((*out)[0])))) {
    return false;
  }
  out->reserve(groups);
  for (size_t i = 0; i < n;) {
    const uint64_t key = KeyOf(buffer[i]);
    int64_t count = 0;
    for (; i < n && KeyOf(buffer[i]) == key; ++i) count += CountOf(buffer[i]);
    out->emplace_back(key, count);
  }
  return true;
}

}  // namespace

bool BucketSortKeys(size_t n, size_t total_bits, size_t bucket_bits,
                    const ItemSource<uint64_t>& source, const SortHooks& hooks,
                    WorkerPool* pool, uint64_t* buffer,
                    std::vector<std::pair<uint64_t, int64_t>>* out) {
  return BucketSort(n, total_bits, bucket_bits, source, hooks, pool, buffer,
                    out);
}

bool BucketSortCounted(size_t n, size_t total_bits, size_t bucket_bits,
                       const ItemSource<CountedKey>& source,
                       const SortHooks& hooks, WorkerPool* pool,
                       CountedKey* buffer,
                       std::vector<std::pair<uint64_t, int64_t>>* out) {
  return BucketSort(n, total_bits, bucket_bits, source, hooks, pool, buffer,
                    out);
}

namespace {

uint64_t FnvCodes(const int32_t* codes, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint32_t>(codes[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlatCodeMap::FlatCodeMap(size_t width, size_t expected) : width_(width) {
  // Load factor stays below 1/2: the slot table holds at least twice the
  // expected group count.
  slots_.assign(NextPow2(expected * 2 + 16), 0);
  mask_ = slots_.size() - 1;
}

void FlatCodeMap::Add(const int32_t* codes, int64_t count) {
  size_t slot = static_cast<size_t>(FnvCodes(codes, width_)) & mask_;
  for (;;) {
    const uint32_t id = slots_[slot];
    if (id == 0) break;
    const int32_t* stored = arena_.data() + (id - 1) * width_;
    if (std::memcmp(stored, codes, width_ * sizeof(int32_t)) == 0) {
      counts_[id - 1] += count;
      return;
    }
    slot = (slot + 1) & mask_;
  }
  arena_.insert(arena_.end(), codes, codes + width_);
  counts_.push_back(count);
  slots_[slot] = static_cast<uint32_t>(counts_.size());
  if (counts_.size() * 2 >= slots_.size()) Grow();
}

void FlatCodeMap::Grow() {
  slots_.assign(slots_.size() * 2, 0);
  mask_ = slots_.size() - 1;
  for (size_t g = 0; g < counts_.size(); ++g) {
    const int32_t* codes = arena_.data() + g * width_;
    size_t slot = static_cast<size_t>(FnvCodes(codes, width_)) & mask_;
    while (slots_[slot] != 0) slot = (slot + 1) & mask_;
    slots_[slot] = static_cast<uint32_t>(g + 1);
  }
}

size_t FlatCodeMap::MemoryBytes() const {
  return arena_.capacity() * sizeof(int32_t) +
         counts_.capacity() * sizeof(int64_t) +
         slots_.capacity() * sizeof(uint32_t);
}

void FlatCodeMap::AppendTo(
    std::vector<std::pair<std::vector<int32_t>, int64_t>>* out) const {
  out->reserve(out->size() + counts_.size());
  for (size_t g = 0; g < counts_.size(); ++g) {
    const int32_t* codes = arena_.data() + g * width_;
    out->emplace_back(std::vector<int32_t>(codes, codes + width_), counts_[g]);
  }
}

}  // namespace incognito
