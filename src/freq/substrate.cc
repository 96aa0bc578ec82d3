#include "freq/substrate.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

namespace incognito {

const char* SubstrateModeName(SubstrateMode mode) {
  switch (mode) {
    case SubstrateMode::kHash:
      return "hash";
    case SubstrateMode::kRadix:
      return "radix";
    case SubstrateMode::kAuto:
      return "auto";
  }
  return "?";
}

bool ParseSubstrateMode(const std::string& text, SubstrateMode* out) {
  if (text == "hash") {
    *out = SubstrateMode::kHash;
  } else if (text == "radix") {
    *out = SubstrateMode::kRadix;
  } else if (text == "auto") {
    *out = SubstrateMode::kAuto;
  } else {
    return false;
  }
  return true;
}

const char* SubstrateChoiceName(SubstrateChoice choice) {
  switch (choice) {
    case SubstrateChoice::kHashMap:
      return "hash-map";
    case SubstrateChoice::kRadixSort:
      return "radix-sort";
    case SubstrateChoice::kFlatMap:
      return "flat-map";
  }
  return "?";
}

SubstrateChoice ChooseSubstrate(SubstrateMode mode, bool packed) {
  if (mode == SubstrateMode::kHash) return SubstrateChoice::kHashMap;
  return packed ? SubstrateChoice::kRadixSort : SubstrateChoice::kFlatMap;
}

SubstrateChoice ResolveSubstrate(SubstrateMode mode, bool packed) {
  if (mode == SubstrateMode::kAuto) {
    if (const char* env = std::getenv("INCOGNITO_SUBSTRATE")) {
      SubstrateMode forced;
      if (ParseSubstrateMode(env, &forced)) mode = forced;
    }
  }
  return ChooseSubstrate(mode, packed);
}

void GatherPackedKeys(const std::vector<const int32_t*>& cols,
                      const std::vector<const int32_t*>& maps,
                      const KeyCodec& codec, size_t begin, size_t end,
                      std::vector<uint64_t>* out) {
  assert(codec.packed());
  const size_t n = codec.num_dims();
  const size_t count = end - begin;
  out->assign(count, 0);
  uint64_t* keys = out->data();
  for (size_t d = 0; d < n; ++d) {
    const uint8_t bits = codec.bits(d);
    const int32_t* col = cols[d] + begin;
    const int32_t* map = maps[d];
    for (size_t i = 0; i < count; ++i) {
      const uint64_t code = static_cast<uint64_t>(map[col[i]]);
      assert(bits >= 64 || (code >> bits) == 0);
      keys[i] = (keys[i] << bits) | code;
    }
  }
}

namespace {

/// Histograms every 8-bit digit of the low `passes` bytes in one pass.
void DigitHistograms(const uint64_t* keys, size_t n, size_t passes,
                     size_t (*hist)[256]) {
  std::memset(hist, 0, passes * 256 * sizeof(size_t));
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = keys[i];
    for (size_t p = 0; p < passes; ++p) {
      ++hist[p][k & 0xff];
      k >>= 8;
    }
  }
}

/// True when the digit's histogram puts every key in one bucket, so the
/// scatter pass would be the identity permutation.
bool SingleBucket(const size_t* h, size_t n) {
  for (size_t b = 0; b < 256; ++b) {
    if (h[b] == n) return true;
    if (h[b] != 0) return false;
  }
  return n == 0;
}

}  // namespace

bool RadixSortKeys(std::vector<uint64_t>& keys, std::vector<uint64_t>& scratch,
                   size_t total_bits, const std::function<bool()>& tick) {
  const size_t n = keys.size();
  const size_t passes = (total_bits + 7) / 8;
  if (n < 2 || passes == 0) return true;
  scratch.resize(n);
  size_t hist[8][256];
  DigitHistograms(keys.data(), n, passes, hist);
  uint64_t* src = keys.data();
  uint64_t* dst = scratch.data();
  bool in_keys = true;
  for (size_t p = 0; p < passes; ++p) {
    if (SingleBucket(hist[p], n)) continue;
    if (tick && !tick()) {
      if (!in_keys) keys.swap(scratch);
      return false;
    }
    size_t offsets[256];
    size_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      offsets[b] = sum;
      sum += hist[p][b];
    }
    const size_t shift = p * 8;
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i] >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
    in_keys = !in_keys;
  }
  if (!in_keys) keys.swap(scratch);
  return true;
}

bool RadixSortCounted(std::vector<std::pair<uint64_t, int64_t>>& items,
                      std::vector<std::pair<uint64_t, int64_t>>& scratch,
                      size_t total_bits, const std::function<bool()>& tick) {
  using Item = std::pair<uint64_t, int64_t>;
  const size_t n = items.size();
  const size_t passes = (total_bits + 7) / 8;
  if (n < 2 || passes == 0) return true;
  scratch.resize(n);
  size_t hist[8][256];
  std::memset(hist, 0, passes * 256 * sizeof(size_t));
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = items[i].first;
    for (size_t p = 0; p < passes; ++p) {
      ++hist[p][k & 0xff];
      k >>= 8;
    }
  }
  Item* src = items.data();
  Item* dst = scratch.data();
  bool in_items = true;
  for (size_t p = 0; p < passes; ++p) {
    if (SingleBucket(hist[p], n)) continue;
    if (tick && !tick()) {
      if (!in_items) items.swap(scratch);
      return false;
    }
    size_t offsets[256];
    size_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      offsets[b] = sum;
      sum += hist[p][b];
    }
    const size_t shift = p * 8;
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i].first >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
    in_items = !in_items;
  }
  if (!in_items) items.swap(scratch);
  return true;
}

size_t ExtractGroups(const std::vector<uint64_t>& keys,
                     std::vector<std::pair<uint64_t, int64_t>>* out) {
  size_t unique = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) ++unique;
  }
  out->reserve(out->size() + unique);
  for (size_t i = 0; i < keys.size();) {
    const uint64_t key = keys[i];
    int64_t count = 0;
    for (; i < keys.size() && keys[i] == key; ++i) ++count;
    out->emplace_back(key, count);
  }
  return unique;
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
