// libFuzzer harness for the key codec and the bucket sort: the fuzzer
// chooses a cardinality vector, a batch of rows and a bucket width, and
// every property the substrates lean on must hold — Pack/Unpack
// round-trips byte-stably, Pack preserves lexicographic order, and the
// bucket sort groups exactly like a naive std::map oracle. Any violation
// traps (caught by the fuzzer as a crash). Seed the corpus from the
// checked-in fixtures:
//
//   mkdir -p corpus && cp tests/data/*.csv corpus/
//   ./build-fuzz/tests/fuzz/keycodec_fuzz corpus -max_total_time=30
//
// Build with -DINCOGNITO_FUZZERS=ON (see tests/fuzz/CMakeLists.txt).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "freq/key_codec.h"
#include "freq/substrate.h"

namespace {

/// Tiny deterministic byte reader over the fuzzer input.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }

  /// Value in [0, n); n must be > 0.
  size_t Below(size_t n) {
    return static_cast<size_t>(Next() | (Next() << 8)) % n;
  }

  bool Exhausted() const { return pos_ >= size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using incognito::KeyCodec;

  if (size < 2) return 0;
  ByteReader in(data, size);

  // The fuzzer picks the key shape: 1..8 dimensions, each with a
  // cardinality in [0, 300] — spanning the zero-cardinality guard, the
  // zero-bit single-value fields, and multi-byte radix digits.
  const size_t num_dims = 1 + in.Below(8);
  std::vector<size_t> cards(num_dims);
  for (auto& c : cards) c = in.Below(301);
  KeyCodec codec = KeyCodec::Create(cards);
  if (!codec.packed()) return 0;  // 8 dims x 9 bits can exceed 64

  // Effective domains: Create treats cardinality 0 as 1.
  std::vector<size_t> domains = codec.cardinalities();

  // Fuzzer-chosen rows, each a code vector inside the domains.
  std::vector<std::vector<int32_t>> rows;
  while (!in.Exhausted() && rows.size() < 512) {
    std::vector<int32_t> codes(num_dims);
    for (size_t d = 0; d < num_dims; ++d) {
      codes[d] = static_cast<int32_t>(in.Below(domains[d]));
    }
    rows.push_back(std::move(codes));
  }
  if (rows.empty()) return 0;

  // Property 1: Pack/Unpack round-trips byte-stably, and re-packing the
  // unpacked codes reproduces the identical key.
  std::vector<uint64_t> keys;
  keys.reserve(rows.size());
  std::vector<int32_t> out(num_dims);
  for (const auto& codes : rows) {
    const uint64_t key = codec.Pack(codes.data());
    codec.Unpack(key, out.data());
    if (out != codes) __builtin_trap();
    if (codec.Pack(out.data()) != key) __builtin_trap();
    keys.push_back(key);
  }

  // Property 2: Pack preserves lexicographic order on adjacent rows.
  for (size_t i = 1; i < rows.size(); ++i) {
    const bool code_lt = rows[i - 1] < rows[i];
    const bool code_gt = rows[i] < rows[i - 1];
    if (code_lt && !(keys[i - 1] < keys[i])) __builtin_trap();
    if (code_gt && !(keys[i] < keys[i - 1])) __builtin_trap();
    if (!code_lt && !code_gt && keys[i - 1] != keys[i]) __builtin_trap();
  }

  // Property 3: the bucket sort, at a bucket width the fuzzer picks from
  // 0 (one whole-input bucket) to the key width (up to 16 bits), groups
  // exactly like a naive std::map oracle and leaves the keys sorted.
  std::map<uint64_t, int64_t> oracle;
  for (uint64_t key : keys) ++oracle[key];
  const size_t bucket_bits =
      in.Below(std::min<size_t>(codec.total_bits(), 16) + 1);
  std::vector<uint64_t> buffer(keys.size());
  std::vector<std::pair<uint64_t, int64_t>> groups;
  if (!incognito::BucketSortKeys(
          keys.size(), codec.total_bits(), bucket_bits,
          [&](size_t begin, size_t end, uint64_t* items) {
            std::copy(keys.begin() + static_cast<std::ptrdiff_t>(begin),
                      keys.begin() + static_cast<std::ptrdiff_t>(end), items);
          },
          {}, nullptr, buffer.data(), &groups)) {
    __builtin_trap();  // no hooks: the sort cannot abort
  }
  for (size_t i = 1; i < buffer.size(); ++i) {
    if (buffer[i - 1] > buffer[i]) __builtin_trap();
  }
  if (groups.size() != oracle.size() || groups.capacity() != groups.size()) {
    __builtin_trap();
  }
  auto it = oracle.begin();
  for (const auto& [key, count] : groups) {
    if (key != it->first || count != it->second) __builtin_trap();
    ++it;
  }
  return 0;
}
