#include "freq/frequency_set.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "core/worker_pool.h"
#include "freq/substrate.h"
#include "obs/obs.h"
#include "robust/fault_injector.h"
#include "robust/governor.h"

namespace incognito {

namespace {

std::vector<size_t> Cardinalities(const QuasiIdentifier& qid,
                                  const SubsetNode& node) {
  std::vector<size_t> cards;
  cards.reserve(node.size());
  for (size_t i = 0; i < node.size(); ++i) {
    cards.push_back(qid.hierarchy(static_cast<size_t>(node.dims[i]))
                        .DomainSize(static_cast<size_t>(node.levels[i])));
  }
  return cards;
}

/// The encoded column and the base→level map of each of `node`'s
/// dimensions, in node order.
void NodeColumns(const Table& table, const QuasiIdentifier& qid,
                 const SubsetNode& node, std::vector<const int32_t*>* cols,
                 std::vector<const int32_t*>* maps) {
  cols->resize(node.size());
  maps->resize(node.size());
  for (size_t i = 0; i < node.size(); ++i) {
    const size_t d = static_cast<size_t>(node.dims[i]);
    (*cols)[i] = table.ColumnCodes(qid.column(d)).data();
    (*maps)[i] = qid.hierarchy(d)
                     .BaseToLevelMap(static_cast<size_t>(node.levels[i]))
                     .data();
  }
}

/// The one rule by which a packed build counts into a key-indexed array
/// instead of sorting: the `bits`-bit key space is at most twice the
/// `input` it aggregates — a row chunk's rows for a scan, source groups
/// for a rollup or projection. The array's 8 B slots then cost at most
/// 16 B per input entry, what a one-bucket sort's buffer and temp hold.
bool CountsDensely(size_t bits, size_t input) {
  return bits < 64 &&
         (uint64_t{1} << bits) <= 2 * static_cast<uint64_t>(input);
}

/// Appends the nonzero slots of a key-indexed count array to `out` (empty
/// on entry) with an exact reserve. Ascending slots are ascending packed
/// keys, so the groups come out in canonical order without a sort.
void SweepCounts(const std::vector<int64_t>& counts,
                 std::vector<std::pair<uint64_t, int64_t>>* out) {
  size_t distinct = 0;
  for (int64_t count : counts) distinct += count != 0;
  out->reserve(distinct);
  for (size_t key = 0; key < counts.size(); ++key) {
    if (counts[key] != 0) out->emplace_back(key, counts[key]);
  }
}

/// Rows between governor polls in a governed scan chunk.
constexpr size_t kCheckEveryRows = 16384;
/// Rows whose packed keys are gathered at once before counting: 16 KB of
/// keys, which stays in L1.
constexpr size_t kCountBlockRows = 2048;
static_assert(kCheckEveryRows % kCountBlockRows == 0);

/// Adds one to `counts[key]` for the packed key of every row in
/// [begin, end). `tick` is polled every kCheckEveryRows rows; returning
/// false abandons the count and makes this return false.
template <typename Tick>
bool CountPackedKeys(const std::vector<const int32_t*>& cols,
                     const std::vector<const int32_t*>& maps,
                     const KeyCodec& codec, size_t begin, size_t end,
                     int64_t* counts, Tick&& tick) {
  uint64_t block[kCountBlockRows] = {};
  for (size_t r = begin; r < end; r += kCountBlockRows) {
    if ((r - begin) % kCheckEveryRows == 0 && !tick()) return false;
    const size_t e = std::min(end, r + kCountBlockRows);
    GatherPackedKeys(cols, maps, codec, r, e, block);
    for (size_t i = 0; i < e - r; ++i) ++counts[block[i]];
  }
  return true;
}

/// Coalesces a code-vector-sorted (key, count) run into unique groups with
/// an exact-capacity reserve — `out` must be empty so its final capacity is
/// the group count, as every other build of a set leaves it.
void CoalesceVec(
    const std::vector<std::pair<std::vector<int32_t>, int64_t>>& all,
    std::vector<std::pair<std::vector<int32_t>, int64_t>>* out) {
  size_t unique = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i == 0 || all[i].first != all[i - 1].first) ++unique;
  }
  out->reserve(unique);
  for (size_t i = 0; i < all.size();) {
    std::vector<int32_t> key = all[i].first;
    int64_t count = 0;
    for (; i < all.size() && all[i].first == key; ++i) count += all[i].second;
    out->emplace_back(std::move(key), count);
  }
}

}  // namespace

FrequencySet FrequencySet::MakeEmpty(const SubsetNode& node,
                                     const QuasiIdentifier& qid) {
  FrequencySet fs;
  fs.node_ = node;
  fs.codec_ = KeyCodec::Create(Cardinalities(qid, node));
  fs.packed_ = fs.codec_.packed();
  return fs;
}

FrequencySet FrequencySet::Compute(const Table& table,
                                   const QuasiIdentifier& qid,
                                   const SubsetNode& node,
                                   SubstrateMode substrate) {
  INCOGNITO_COUNT("freq.scans");
  if (substrate == SubstrateMode::kHash) {
    FrequencySet out = MakeEmpty(node, qid);
    if (out.packed_) {
      out.HashReferenceScan(table, qid);
      return out;
    }
  }
  return std::move(ComputeBatch(table, qid, {node}).front());
}

Result<FrequencySet> FrequencySet::TryCompute(const Table& table,
                                              const QuasiIdentifier& qid,
                                              const SubsetNode& node) {
  INCOGNITO_COUNT("freq.scans");
  ExecutionGovernor governor;  // unlimited: only an injected fault trips it
  FrequencySet set = std::move(
      ComputeBatch(table, qid, {node}, nullptr, &governor).front());
  if (governor.Tripped()) return governor.TripStatus();
  return set;
}

void FrequencySet::HashReferenceScan(const Table& table,
                                     const QuasiIdentifier& qid) {
  INCOGNITO_SPAN("freq.hash_reference_scan");
  INCOGNITO_PHASE_TIMER("phase.freq_scan_seconds");
  INCOGNITO_HIST_TIMER("freq.build_seconds");
  INCOGNITO_COUNT("freq.substrate_hash");
  const size_t rows = table.num_rows();
  INCOGNITO_COUNT_ADD("freq.scan_rows", static_cast<int64_t>(rows));
  const size_t n = node_.size();
  std::vector<const int32_t*> cols;
  std::vector<const int32_t*> maps;
  NodeColumns(table, qid, node_, &cols, &maps);
  std::unordered_map<uint64_t, int64_t> agg;
  agg.reserve(rows / 4 + 8);
  std::vector<int32_t> codes(n);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t i = 0; i < n; ++i) codes[i] = maps[i][cols[i][r]];
    ++agg[codec_.Pack(codes.data())];
  }
  // Assigned from the finished map, so the capacity is the group count.
  groups_.assign(agg.begin(), agg.end());
  SortGroups();
  total_count_ = static_cast<int64_t>(rows);
}

std::vector<FrequencySet> FrequencySet::ComputeBatch(
    const Table& table, const QuasiIdentifier& qid,
    const std::vector<SubsetNode>& nodes, WorkerPool* pool,
    ExecutionGovernor* caller) {
  ExecutionGovernor local;  // unlimited: accounting only
  ExecutionGovernor& governor = caller != nullptr ? *caller : local;
  std::vector<FrequencySet> out;
  out.reserve(nodes.size());
  for (const SubsetNode& node : nodes) {
    assert(node.size() > 0);
    out.push_back(MakeEmpty(node, qid));
  }
  if (nodes.empty()) return out;
  INCOGNITO_SPAN("freq.batch_scan");
  INCOGNITO_PHASE_TIMER("phase.freq_scan_seconds");
  INCOGNITO_HIST_TIMER("freq.build_seconds");
  INCOGNITO_COUNT("freq.batch_scans");
  INCOGNITO_COUNT_ADD("freq.batch_scan_nodes",
                      static_cast<int64_t>(nodes.size()));
  INCOGNITO_COUNT_ADD("freq.scan_rows",
                      static_cast<int64_t>(table.num_rows()));

  const size_t b = nodes.size();
  const size_t rows = table.num_rows();
  std::vector<std::vector<const int32_t*>> cols(b);
  std::vector<std::vector<const int32_t*>> maps(b);
  for (size_t j = 0; j < b; ++j) {
    NodeColumns(table, qid, nodes[j], &cols[j], &maps[j]);
  }

  // The key width picks each node's engine (same dims at different levels
  // have different widths, so a batch can mix them). A packed node is
  // gathered column-wise outside the shared row loop, then counted or
  // sorted; the wide nodes ride one row loop into FlatCodeMaps.
  const size_t chunks = pool != nullptr ? static_cast<size_t>(pool->size()) : 1;
  // Whether a packed node counts, decided once against the rows each
  // chunk counts, so every chunk takes the same branch.
  std::vector<bool> dense(b, false);
  bool any_sort = false;
  bool any_wide = false;
  for (size_t j = 0; j < b; ++j) {
    if (out[j].packed_) {
      INCOGNITO_COUNT("freq.substrate_radix");
      dense[j] = CountsDensely(out[j].codec_.total_bits(), rows / chunks);
      any_sort = any_sort || !dense[j];
    } else {
      INCOGNITO_COUNT("freq.substrate_flat");
      any_wide = true;
    }
  }
  if (chunks > 1) {
    INCOGNITO_COUNT_ADD("freq.scan_chunks", static_cast<int64_t>(chunks));
  }

  // Per-chunk, per-node state of the counted and wide nodes, merged per
  // node in chunk order.
  std::vector<std::vector<std::vector<int64_t>>> ccount(chunks);
  std::vector<std::vector<std::unique_ptr<FlatCodeMap>>> cflat(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    ccount[c].resize(b);
    cflat[c].resize(b);
  }

  // What each chunk holds charged when it returns, and the sorted nodes'
  // sets, released together once the scan has finished.
  std::vector<MemoryCharge> held;
  held.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) held.emplace_back(governor);
  MemoryCharge sorted(governor);
  auto tick = [&governor] { return governor.Check().ok(); };
  const SortHooks hooks{
      tick,
      [&governor](int64_t bytes) { return governor.ChargeMemory(bytes).ok(); },
      [&governor](int64_t bytes) { governor.ReleaseMemory(bytes); }};

  bool ok = tick();
  // Fault site "freq.batch.scan": an injected allocation failure, consulted
  // once per row chunk before the scan starts, latches like a refused
  // charge.
  for (size_t c = 0; ok && c < chunks; ++c) {
    if (INCOGNITO_FAULT_FIRED("freq.batch.scan")) {
      governor.LatchInjectedFailure("freq.batch.scan");
      ok = false;
    }
  }

  // Sorted nodes first, one at a time through the bucket sort, whose
  // phases run over the same C row chunks. They share one bucket buffer
  // of 8 B a row, charged before it is allocated and freed before any
  // count array is allocated. A finished sort leaves its groups charged,
  // and `sorted` takes that charge over.
  if (ok && any_sort && rows > 0) {
    MemoryCharge buffer_charge(governor);
    ok = buffer_charge.Add(static_cast<int64_t>(rows * sizeof(uint64_t))).ok();
    if (ok) {
      auto buffer = std::make_unique_for_overwrite<uint64_t[]>(rows);
      for (size_t j = 0; j < b && ok; ++j) {
        if (!out[j].packed_ || dense[j]) continue;
        const KeyCodec& codec = out[j].codec_;
        const size_t bits = codec.total_bits();
        ok = BucketSortKeys(
            rows, bits, BucketBits(rows, bits, chunks),
            [&](size_t begin, size_t end, uint64_t* keys) {
              GatherPackedKeys(cols[j], maps[j], codec, begin, end, keys);
            },
            hooks, pool, buffer.get(), &out[j].groups_);
        sorted.Adopt(static_cast<int64_t>(out[j].groups_.capacity() *
                                          sizeof(out[j].groups_[0])));
      }
    }
  }

  // The one chunk body of the counted and wide nodes: rows [begin, end)
  // into chunk c's state.
  auto scan_chunk = [&](int chunk, size_t begin, size_t end) {
    INCOGNITO_SPAN("freq.batch_scan.chunk");
    const size_t c = static_cast<size_t>(chunk);
    const size_t chunk_rows = end - begin;
    // Monotonic footprint shared by every node this chunk feeds: count
    // arrays charge before they are allocated, map growth at checkpoints.
    MemoryCharge& charged = held[c];
    int64_t partial_bytes = 0;
    auto charge_to = [&](int64_t now) {
      return now <= charged.bytes() || charged.Add(now - charged.bytes()).ok();
    };
    for (size_t j = 0; j < b; ++j) {
      if (!dense[j]) continue;
      const size_t slots = size_t{1} << out[j].codec_.total_bits();
      partial_bytes += static_cast<int64_t>(slots * sizeof(int64_t));
      if (!charge_to(partial_bytes)) return;
      ccount[c][j].assign(slots, 0);
      if (!CountPackedKeys(cols[j], maps[j], out[j].codec_, begin, end,
                           ccount[c][j].data(), tick)) {
        return;
      }
    }
    if (!any_wide) return;
    auto checkpoint = [&]() {
      if (!tick()) return false;
      int64_t now = partial_bytes;
      for (size_t j = 0; j < b; ++j) {
        if (cflat[c][j] != nullptr) {
          now += static_cast<int64_t>(cflat[c][j]->MemoryBytes());
        }
      }
      return charge_to(now);
    };
    std::vector<std::vector<int32_t>> codes(b);
    for (size_t j = 0; j < b; ++j) {
      if (out[j].packed_) continue;
      codes[j].resize(nodes[j].size());
      cflat[c][j] =
          std::make_unique<FlatCodeMap>(nodes[j].size(), chunk_rows / 4 + 8);
    }
    for (size_t r = begin; r < end; ++r) {
      if ((r - begin) % kCheckEveryRows == 0 && !checkpoint()) return;
      for (size_t j = 0; j < b; ++j) {
        if (out[j].packed_) continue;
        const size_t n = nodes[j].size();
        for (size_t i = 0; i < n; ++i) {
          codes[j][i] = maps[j][i][cols[j][i][r]];
        }
        cflat[c][j]->Add(codes[j].data(), 1);
      }
    }
    checkpoint();
  };
  // One chunk runs inline, so a 1-worker pool records no chunk event.
  if (ok && chunks > 1) {
    pool->Run(rows, scan_chunk);
  } else if (ok) {
    scan_chunk(0, 0, rows);
  }

  // The charges return to the governor here; a trip (if any) is already
  // latched, so the caller's next Check() or charge sees it.
  held.clear();
  sorted.Reset();
  if (governor.Tripped()) {
    for (size_t j = 0; j < b; ++j) out[j] = MakeEmpty(nodes[j], qid);
    return out;
  }

  // Merge the counted and wide nodes in chunk order: count arrays are
  // summed and swept, flat maps' groups coalesced and sorted canonically.
  // A sorted node's set is already built. Every reserve is exact, so the
  // capacity (hence MemoryBytes()) is the same at every chunk count.
  for (size_t j = 0; j < b; ++j) {
    if (dense[j]) {
      std::vector<int64_t> counts = std::move(ccount[0][j]);
      for (size_t c = 1; c < chunks; ++c) {
        const std::vector<int64_t> part = std::move(ccount[c][j]);
        assert(part.size() == counts.size());
        for (size_t key = 0; key < part.size(); ++key) {
          counts[key] += part[key];
        }
      }
      SweepCounts(counts, &out[j].groups_);
    } else if (!out[j].packed_) {
      std::vector<std::pair<std::vector<int32_t>, int64_t>> all;
      size_t total = 0;
      for (size_t c = 0; c < chunks; ++c) {
        total += cflat[c][j] != nullptr ? cflat[c][j]->size() : 0;
      }
      all.reserve(total);
      for (size_t c = 0; c < chunks; ++c) {
        if (cflat[c][j] != nullptr) cflat[c][j]->AppendTo(&all);
      }
      std::sort(all.begin(), all.end());
      CoalesceVec(all, &out[j].vgroups_);
    }
    out[j].total_count_ = static_cast<int64_t>(rows);
  }
  return out;
}

FrequencySet FrequencySet::RollupTo(const SubsetNode& target,
                                    const QuasiIdentifier& qid) const {
  assert(target.dims == node_.dims);
  INCOGNITO_SPAN("freq.rollup");
  INCOGNITO_PHASE_TIMER("phase.rollup_seconds");
  INCOGNITO_HIST_TIMER("freq.build_seconds");
  INCOGNITO_COUNT("freq.rollups");
  INCOGNITO_COUNT_ADD("freq.rollup_groups",
                      static_cast<int64_t>(NumGroups()));
  const size_t n = node_.size();
  // Per-dimension remap tables from this node's level to the target level.
  std::vector<std::vector<int32_t>> remap(n);
  for (size_t i = 0; i < n; ++i) {
    assert(target.levels[i] >= node_.levels[i]);
    const ValueHierarchy& h = qid.hierarchy(static_cast<size_t>(node_.dims[i]));
    size_t from = static_cast<size_t>(node_.levels[i]);
    size_t to = static_cast<size_t>(target.levels[i]);
    remap[i].resize(h.DomainSize(from));
    for (size_t c = 0; c < remap[i].size(); ++c) {
      remap[i][c] = h.GeneralizeFrom(from, static_cast<int32_t>(c), to);
    }
  }
  return RegroupTo(target, qid, remap);
}

FrequencySet FrequencySet::ProjectTo(const SubsetNode& target,
                                     const QuasiIdentifier& qid) const {
  INCOGNITO_SPAN("freq.projection");
  INCOGNITO_PHASE_TIMER("phase.projection_seconds");
  INCOGNITO_COUNT("freq.projections");
  // Every kept dimension keeps its level, so it maps through the identity.
  std::vector<std::vector<int32_t>> identity(target.size());
  for (size_t j = 0; j < target.size(); ++j) {
    const auto kept =
        std::find(node_.dims.begin(), node_.dims.end(), target.dims[j]);
    assert(kept != node_.dims.end() &&
           target.levels[j] == node_.levels[static_cast<size_t>(
                                   kept - node_.dims.begin())]);
    (void)kept;
    identity[j].resize(qid.hierarchy(static_cast<size_t>(target.dims[j]))
                           .DomainSize(static_cast<size_t>(target.levels[j])));
    std::iota(identity[j].begin(), identity[j].end(), 0);
  }
  return RegroupTo(target, qid, identity);
}

FrequencySet FrequencySet::RegroupTo(
    const SubsetNode& target, const QuasiIdentifier& qid,
    const std::vector<std::vector<int32_t>>& remap) const {
  const size_t n = node_.size();
  const size_t m = target.size();
  // source[j]: the source field over target field j's dimension.
  std::vector<size_t> source(m);
  for (size_t i = 0, j = 0; j < m; ++i) {
    assert(i < n);
    if (node_.dims[i] == target.dims[j]) source[j++] = i;
  }

  FrequencySet out = MakeEmpty(target, qid);
  out.total_count_ = total_count_;
  // An empty result keeps capacity 0, as a scan's does. Past this point
  // every domain holds at least one code.
  if (NumGroups() == 0) return out;

  // A vector source is remapped code by code.
  std::vector<int32_t> codes(m);
  auto remap_codes = [&](const std::vector<int32_t>& src) {
    for (size_t j = 0; j < m; ++j) {
      codes[j] = remap[j][static_cast<size_t>(src[source[j]])];
    }
    return codes.data();
  };
  if (!out.packed_) {
    // Neither a rollup nor a projection adds key bits, so only a vector
    // source has a vector target.
    FlatCodeMap agg(m, NumGroups());
    for (const auto& [src, count] : vgroups_) agg.Add(remap_codes(src), count);
    agg.AppendTo(&out.vgroups_);
    out.SortGroups();
    return out;
  }

  // A packed source is remapped on the key itself: per kept field, a table
  // from the source field's code to the target code already shifted into
  // its target position; a dropped field gets no table. A zero-bit source
  // field holds only code 0, so its target field is a constant folded into
  // `fixed`; skipping it also keeps every shift below 64 (a zero-bit
  // leading field of a full 64-bit key sits at bit 64).
  struct Field {
    unsigned shift = 0;
    uint64_t mask = 0;
    std::vector<uint64_t> table;
  };
  std::vector<Field> fields;
  uint64_t fixed = 0;
  if (packed_) {
    size_t src_shift = codec_.total_bits();
    size_t dst_shift = out.codec_.total_bits();
    for (size_t i = 0, j = 0; i < n; ++i) {
      src_shift -= codec_.bits(i);
      if (j == m || source[j] != i) continue;
      const size_t dst_bits = out.codec_.bits(j);
      dst_shift -= dst_bits;
      const std::vector<int32_t>& to = remap[j++];
      auto placed = [&](int32_t code) {
        return dst_bits == 0 ? uint64_t{0}
                             : static_cast<uint64_t>(code) << dst_shift;
      };
      if (codec_.bits(i) == 0) {
        fixed |= placed(to[0]);
        continue;
      }
      Field& field = fields.emplace_back();
      field.shift = static_cast<unsigned>(src_shift);
      field.mask = (uint64_t{1} << codec_.bits(i)) - 1;
      field.table.reserve(to.size());
      for (int32_t code : to) field.table.push_back(placed(code));
    }
  }
  // Calls emit(target key, count) once per source group in [begin, end).
  auto for_each_target_key = [&](size_t begin, size_t end, auto&& emit) {
    if (packed_) {
      for (size_t g = begin; g < end; ++g) {
        const uint64_t key = groups_[g].first;
        uint64_t target_key = fixed;
        for (const Field& field : fields) {
          target_key |= field.table[(key >> field.shift) & field.mask];
        }
        emit(target_key, groups_[g].second);
      }
      return;
    }
    for (size_t g = begin; g < end; ++g) {
      emit(out.codec_.Pack(remap_codes(vgroups_[g].first)),
           vgroups_[g].second);
    }
  };

  const size_t bits = out.codec_.total_bits();
  const size_t groups = NumGroups();
  if (CountsDensely(bits, groups)) {
    // Dense target space: the array is at most the source set's own size.
    std::vector<int64_t> counts(size_t{1} << bits, 0);
    for_each_target_key(0, groups, [&](uint64_t key, int64_t count) {
      counts[key] += count;
    });
    SweepCounts(counts, &out.groups_);
  } else {
    // The bucket sort's counted form takes the target keys twice, to
    // histogram and to scatter, into one 16 B-per-group buffer.
    const auto buffer = std::make_unique_for_overwrite<CountedKey[]>(groups);
    BucketSortCounted(
        groups, bits, BucketBits(groups, bits, 1),
        [&](size_t begin, size_t end, CountedKey* items) {
          for_each_target_key(begin, end, [&](uint64_t key, int64_t count) {
            *items++ = {key, count};
          });
        },
        {}, nullptr, buffer.get(), &out.groups_);
  }
  return out;
}

void FrequencySet::SortGroups() {
  // Keys are unique, so sorting the pairs sorts by key; for the packed
  // path ascending keys equal ascending lexicographic code vectors
  // because KeyCodec::Pack is order-preserving.
  if (packed_) {
    std::sort(groups_.begin(), groups_.end());
  } else {
    std::sort(vgroups_.begin(), vgroups_.end());
  }
}

int64_t FrequencySet::MinCount() const {
  int64_t min_count = 0;
  bool first = true;
  auto visit = [&](int64_t count) {
    if (first || count < min_count) {
      min_count = count;
      first = false;
    }
  };
  if (packed_) {
    for (const auto& [key, count] : groups_) {
      (void)key;
      visit(count);
    }
  } else {
    for (const auto& [key, count] : vgroups_) {
      (void)key;
      visit(count);
    }
  }
  return first ? 0 : min_count;
}

int64_t FrequencySet::TuplesBelowK(int64_t k) const {
  int64_t below = 0;
  if (packed_) {
    for (const auto& [key, count] : groups_) {
      (void)key;
      if (count < k) below += count;
    }
  } else {
    for (const auto& [key, count] : vgroups_) {
      (void)key;
      if (count < k) below += count;
    }
  }
  return below;
}

int64_t FrequencySet::TuplesViolatingDiversity(int64_t k, int64_t l) const {
  assert(node_.size() > 0);
  int64_t violating = 0;
  int64_t tuples = 0;
  int64_t distinct = 0;
  // Settles the class whose run just ended.
  auto close_class = [&] {
    if (tuples < k || distinct < l) violating += tuples;
    tuples = 0;
    distinct = 0;
  };
  if (packed_) {
    const unsigned shift = codec_.bits(node_.size() - 1);
    uint64_t current = 0;
    for (const auto& [key, count] : groups_) {
      const uint64_t cls = key >> shift;
      if (distinct > 0 && cls != current) close_class();
      current = cls;
      tuples += count;
      ++distinct;
    }
  } else {
    const size_t width = node_.size() - 1;
    const int32_t* current = nullptr;
    for (const auto& [codes, count] : vgroups_) {
      if (current != nullptr &&
          !std::equal(codes.begin(), codes.begin() + width, current)) {
        close_class();
      }
      current = codes.data();
      tuples += count;
      ++distinct;
    }
  }
  if (distinct > 0) close_class();
  return violating;
}

void FrequencySet::ForEachGroup(
    const std::function<void(const int32_t* codes, int64_t count)>& fn) const {
  if (packed_) {
    std::vector<int32_t> codes(node_.size());
    for (const auto& [key, count] : groups_) {
      codec_.Unpack(key, codes.data());
      fn(codes.data(), count);
    }
  } else {
    for (const auto& [key, count] : vgroups_) {
      fn(key.data(), count);
    }
  }
}

size_t FrequencySet::MemoryBytes() const {
  if (packed_) {
    return groups_.capacity() * sizeof(groups_[0]);
  }
  size_t bytes = vgroups_.capacity() * sizeof(vgroups_[0]);
  for (const auto& [key, count] : vgroups_) {
    (void)count;
    bytes += key.capacity() * sizeof(int32_t);
  }
  return bytes;
}

}  // namespace incognito
