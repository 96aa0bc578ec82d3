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
/// `input` it aggregates — table rows for a scan (a worker's chunk when
/// pooled), source groups for a rollup or projection. The array's 8 B
/// slots then cost at most 16 B per input entry, no more than a sort's key
/// + scratch buffers.
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

/// Rows between governor polls in the pooled scan.
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
  std::vector<uint64_t> block;
  for (size_t r = begin; r < end; r += kCountBlockRows) {
    if ((r - begin) % kCheckEveryRows == 0 && !tick()) return false;
    GatherPackedKeys(cols, maps, codec, r, std::min(end, r + kCountBlockRows),
                     &block);
    for (uint64_t key : block) ++counts[key];
  }
  return true;
}

/// Coalesces a key-sorted (key, count) run into unique groups with an
/// exact-capacity reserve — `out` must be empty so its final capacity is
/// the group count, as every other build of a set leaves it.
void CoalescePacked(const std::vector<std::pair<uint64_t, int64_t>>& all,
                    std::vector<std::pair<uint64_t, int64_t>>* out) {
  size_t unique = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i == 0 || all[i].first != all[i - 1].first) ++unique;
  }
  out->reserve(unique);
  for (size_t i = 0; i < all.size();) {
    const uint64_t key = all[i].first;
    int64_t count = 0;
    for (; i < all.size() && all[i].first == key; ++i) count += all[i].second;
    out->emplace_back(key, count);
  }
}

/// Radix-sorts (key, count) pairs on their low `total_bits` bits and
/// coalesces them into `out` (empty on entry) — the canonical order, since
/// packing is order-preserving. The sort's ping-pong buffer is freed before
/// the coalesced copy is allocated, so at most two item-sized buffers live
/// at once.
void SortAndCoalescePacked(std::vector<std::pair<uint64_t, int64_t>>& items,
                           size_t total_bits,
                           std::vector<std::pair<uint64_t, int64_t>>* out) {
  {
    std::vector<std::pair<uint64_t, int64_t>> scratch;
    RadixSortCounted(items, scratch, total_bits);
  }
  CoalescePacked(items, out);
}

/// Vector-key twin of CoalescePacked.
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
    ExecutionGovernor* governor) {
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
  const bool pooled = pool != nullptr && pool->size() > 1;
  const size_t workers = pooled ? static_cast<size_t>(pool->size()) : 1;
  // Whether a packed node counts, decided once against the rows each
  // worker counts, so every worker takes the same branch.
  std::vector<bool> dense(b, false);
  bool any_sort = false;
  bool any_wide = false;
  for (size_t j = 0; j < b; ++j) {
    if (out[j].packed_) {
      INCOGNITO_COUNT("freq.substrate_radix");
      dense[j] = CountsDensely(out[j].codec_.total_bits(), rows / workers);
      any_sort = any_sort || !dense[j];
    } else {
      INCOGNITO_COUNT("freq.substrate_flat");
      any_wide = true;
    }
  }

  if (!pooled) {
    // Serial shared scan: one row loop feeds every wide node; packed nodes
    // each take a columnar pass over their (shared, cache-resident)
    // columns. The fault site stands in for an allocation failure while
    // setting the aggregation state up.
    if (governor != nullptr && INCOGNITO_FAULT_FIRED("freq.batch.scan")) {
      governor->LatchInjectedFailure("freq.batch.scan");
      return out;
    }
    // Counted nodes go first, so no count array lives beside the sort
    // buffers.
    for (size_t j = 0; j < b; ++j) {
      if (!dense[j]) continue;
      std::vector<int64_t> counts(size_t{1} << out[j].codec_.total_bits(), 0);
      CountPackedKeys(cols[j], maps[j], out[j].codec_, 0, rows,
                      counts.data(), [] { return true; });
      SweepCounts(counts, &out[j].groups_);
    }
    if (any_sort) {
      std::vector<uint64_t> keys;
      std::vector<uint64_t> scratch;
      for (size_t j = 0; j < b; ++j) {
        if (!out[j].packed_ || dense[j]) continue;
        GatherPackedKeys(cols[j], maps[j], out[j].codec_, 0, rows, &keys);
        RadixSortKeys(keys, scratch, out[j].codec_.total_bits());
        ExtractGroups(keys, &out[j].groups_);
      }
    }
    if (any_wide) {
      std::vector<std::unique_ptr<FlatCodeMap>> flat(b);
      std::vector<std::vector<int32_t>> codes(b);
      for (size_t j = 0; j < b; ++j) {
        if (out[j].packed_) continue;
        codes[j].resize(nodes[j].size());
        flat[j] = std::make_unique<FlatCodeMap>(nodes[j].size(), rows / 4 + 8);
      }
      for (size_t r = 0; r < rows; ++r) {
        for (size_t j = 0; j < b; ++j) {
          if (out[j].packed_) continue;
          const size_t n = nodes[j].size();
          for (size_t i = 0; i < n; ++i) {
            codes[j][i] = maps[j][i][cols[j][i][r]];
          }
          flat[j]->Add(codes[j].data(), 1);
        }
      }
      for (size_t j = 0; j < b; ++j) {
        if (out[j].packed_) continue;
        // AppendTo reserves the exact group count, so the capacity —
        // hence MemoryBytes() — matches the pooled merge's.
        flat[j]->AppendTo(&out[j].vgroups_);
        out[j].SortGroups();
      }
    }
    for (size_t j = 0; j < b; ++j) {
      out[j].total_count_ = static_cast<int64_t>(rows);
    }
    return out;
  }

  INCOGNITO_COUNT_ADD("freq.scan_chunks", static_cast<int64_t>(workers));

  // Per-worker, per-node thread-local aggregation state; merged after the
  // barrier in worker-id order.
  std::vector<std::vector<std::vector<int64_t>>> wcount(workers);
  std::vector<std::vector<std::vector<std::pair<uint64_t, int64_t>>>> wpart(
      workers);
  std::vector<std::vector<std::unique_ptr<FlatCodeMap>>> wflat(workers);
  for (size_t w = 0; w < workers; ++w) {
    wcount[w].resize(b);
    wpart[w].resize(b);
    wflat[w].resize(b);
  }

  std::vector<std::unique_ptr<GovernorShard>> shards;
  if (governor != nullptr) {
    shards.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      shards.push_back(std::make_unique<GovernorShard>(governor));
    }
  }

  pool->Run(rows, [&](int w, size_t begin, size_t end) {
    INCOGNITO_SPAN("freq.batch_scan.chunk");
    const size_t wi = static_cast<size_t>(w);
    GovernorShard* shard = governor != nullptr ? shards[wi].get() : nullptr;
    if (shard != nullptr) {
      if (!shard->Check().ok()) return;
      // Fault site "freq.batch.scan": an injected allocation failure at
      // the start of a worker's row chunk latches like a refused charge;
      // sibling chunks stop at their next checkpoint.
      if (INCOGNITO_FAULT_FIRED("freq.batch.scan")) {
        governor->LatchInjectedFailure("freq.batch.scan");
        return;
      }
    }
    const size_t chunk_rows = end - begin;
    // Monotonic footprint ledger shared by every node this worker feeds:
    // count arrays charge before they are allocated, sorted outputs as
    // they finish, map growth at checkpoints.
    int64_t charged = 0;
    int64_t partial_bytes = 0;
    auto charge_to = [&](int64_t now) {
      if (shard == nullptr) return true;
      if (now > charged) {
        if (!shard->ChargeMemory(now - charged).ok()) return false;
        charged = now;
      }
      return true;
    };
    auto tick = [shard] { return shard == nullptr || shard->Check().ok(); };
    for (size_t j = 0; j < b; ++j) {
      if (!dense[j]) continue;
      const size_t slots = size_t{1} << out[j].codec_.total_bits();
      partial_bytes += static_cast<int64_t>(slots * sizeof(int64_t));
      if (!charge_to(partial_bytes)) return;
      wcount[wi][j].assign(slots, 0);
      if (!CountPackedKeys(cols[j], maps[j], out[j].codec_, begin, end,
                           wcount[wi][j].data(), tick)) {
        return;
      }
    }
    if (any_sort && chunk_rows > 0) {
      const int64_t buffer_bytes =
          static_cast<int64_t>(2 * chunk_rows * sizeof(uint64_t));
      if (shard != nullptr && !shard->ChargeMemory(buffer_bytes).ok()) return;
      bool ok = true;
      {
        std::vector<uint64_t> keys;
        std::vector<uint64_t> scratch;
        for (size_t j = 0; j < b && ok; ++j) {
          if (!out[j].packed_ || dense[j]) continue;
          GatherPackedKeys(cols[j], maps[j], out[j].codec_, begin, end,
                           &keys);
          if (!RadixSortKeys(keys, scratch, out[j].codec_.total_bits(),
                             tick)) {
            ok = false;
            break;
          }
          const size_t groups = ExtractGroups(keys, &wpart[wi][j]);
          partial_bytes += static_cast<int64_t>(
              groups * sizeof(std::pair<uint64_t, int64_t>));
          ok = charge_to(partial_bytes);
        }
      }
      if (shard != nullptr) shard->ReleaseMemory(buffer_bytes);
      if (!ok) return;
    }
    if (!any_wide) return;
    auto checkpoint = [&]() {
      if (shard == nullptr) return true;
      if (!shard->Check().ok()) return false;
      int64_t now = partial_bytes;
      for (size_t j = 0; j < b; ++j) {
        if (wflat[wi][j] != nullptr) {
          now += static_cast<int64_t>(wflat[wi][j]->MemoryBytes());
        }
      }
      return charge_to(now);
    };
    std::vector<std::vector<int32_t>> codes(b);
    for (size_t j = 0; j < b; ++j) {
      if (out[j].packed_) continue;
      codes[j].resize(nodes[j].size());
      wflat[wi][j] =
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
        wflat[wi][j]->Add(codes[j].data(), 1);
      }
    }
    checkpoint();
  });

  // Transient charges return to the governor here; a trip (if any) is
  // already latched shared, so the caller's SharedTrip() check sees it.
  for (auto& shard : shards) shard->Drain();
  if (governor != nullptr && !governor->SharedTrip().ok()) {
    for (size_t j = 0; j < b; ++j) out[j] = MakeEmpty(nodes[j], qid);
    return out;
  }

  // Merge each node in worker-id order: counted nodes sum their arrays and
  // sweep them, the rest coalesce equal keys and sort canonically. Either
  // way the reserve is exact, so the capacity (hence MemoryBytes())
  // matches the serial scan.
  for (size_t j = 0; j < b; ++j) {
    if (dense[j]) {
      std::vector<int64_t> counts = std::move(wcount[0][j]);
      for (size_t w = 1; w < workers; ++w) {
        const std::vector<int64_t> part = std::move(wcount[w][j]);
        assert(part.size() == counts.size());
        for (size_t key = 0; key < part.size(); ++key) {
          counts[key] += part[key];
        }
      }
      SweepCounts(counts, &out[j].groups_);
    } else if (out[j].packed_) {
      std::vector<std::pair<uint64_t, int64_t>> all;
      size_t total = 0;
      for (size_t w = 0; w < workers; ++w) total += wpart[w][j].size();
      all.reserve(total);
      for (size_t w = 0; w < workers; ++w) {
        all.insert(all.end(), wpart[w][j].begin(), wpart[w][j].end());
      }
      std::sort(all.begin(), all.end());
      CoalescePacked(all, &out[j].groups_);
    } else {
      std::vector<std::pair<std::vector<int32_t>, int64_t>> all;
      size_t total = 0;
      for (size_t w = 0; w < workers; ++w) {
        total += wflat[w][j] != nullptr ? wflat[w][j]->size() : 0;
      }
      all.reserve(total);
      for (size_t w = 0; w < workers; ++w) {
        if (wflat[w][j] != nullptr) wflat[w][j]->AppendTo(&all);
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
  // Calls emit(target key, count) once per source group.
  auto for_each_target_key = [&](auto&& emit) {
    if (packed_) {
      for (const auto& [key, count] : groups_) {
        uint64_t target_key = fixed;
        for (const Field& field : fields) {
          target_key |= field.table[(key >> field.shift) & field.mask];
        }
        emit(target_key, count);
      }
      return;
    }
    for (const auto& [src, count] : vgroups_) {
      emit(out.codec_.Pack(remap_codes(src)), count);
    }
  };

  const size_t bits = out.codec_.total_bits();
  if (CountsDensely(bits, NumGroups())) {
    // Dense target space: the array is at most the source set's own size.
    std::vector<int64_t> counts(size_t{1} << bits, 0);
    for_each_target_key(
        [&](uint64_t key, int64_t count) { counts[key] += count; });
    SweepCounts(counts, &out.groups_);
  } else {
    std::vector<std::pair<uint64_t, int64_t>> items;
    items.reserve(NumGroups());
    for_each_target_key([&](uint64_t key, int64_t count) {
      items.emplace_back(key, count);
    });
    SortAndCoalescePacked(items, bits, &out.groups_);
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
