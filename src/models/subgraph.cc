#include "models/subgraph.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "freq/frequency_set.h"
#include "obs/obs.h"
#include "relation/view.h"

namespace incognito {

namespace {

struct VecHash {
  size_t operator()(const std::vector<int32_t>& v) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int32_t x : v) {
      h ^= static_cast<uint32_t>(x);
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// A hierarchy-aligned box of the multi-attribute value domain: per
/// dimension, a level and the value code at that level. The box's region
/// is the product of the per-dimension value subtrees.
struct Cell {
  std::vector<int32_t> levels;
  std::vector<int32_t> codes;
  bool alive = true;
};

/// Returns true iff box `inner` is contained in box `outer`: per
/// dimension, inner's subtree lies within outer's.
bool Contains(const QuasiIdentifier& qid, const Cell& outer,
              const Cell& inner) {
  for (size_t d = 0; d < qid.size(); ++d) {
    if (inner.levels[d] > outer.levels[d]) return false;
    if (qid.hierarchy(d).GeneralizeFrom(
            static_cast<size_t>(inner.levels[d]), inner.codes[d],
            static_cast<size_t>(outer.levels[d])) != outer.codes[d]) {
      return false;
    }
  }
  return true;
}

/// Returns true iff two boxes intersect. Per dimension, hierarchy
/// subtrees are either nested or disjoint, so the boxes intersect iff in
/// every dimension one side's subtree contains the other's.
bool Intersects(const QuasiIdentifier& qid, const Cell& a, const Cell& b) {
  for (size_t d = 0; d < qid.size(); ++d) {
    const ValueHierarchy& h = qid.hierarchy(d);
    bool a_in_b =
        a.levels[d] <= b.levels[d] &&
        h.GeneralizeFrom(static_cast<size_t>(a.levels[d]), a.codes[d],
                         static_cast<size_t>(b.levels[d])) == b.codes[d];
    bool b_in_a =
        b.levels[d] <= a.levels[d] &&
        h.GeneralizeFrom(static_cast<size_t>(b.levels[d]), b.codes[d],
                         static_cast<size_t>(a.levels[d])) == a.codes[d];
    if (!a_in_b && !b_in_a) return false;
  }
  return true;
}

/// Joins box `other` into `target`: per dimension, the coarser of the two
/// (they intersect, so one contains the other per dimension).
void JoinInto(const QuasiIdentifier& qid, const Cell& other, Cell* target) {
  for (size_t d = 0; d < qid.size(); ++d) {
    if (other.levels[d] > target->levels[d]) {
      target->levels[d] = other.levels[d];
      target->codes[d] = other.codes[d];
    }
  }
}

}  // namespace

Result<SubgraphResult> RunGreedySubgraph(const Table& table,
                                         const QuasiIdentifier& qid,
                                         const AnonymizationConfig& config) {
  INCOGNITO_SPAN("model.subgraph");
  INCOGNITO_COUNT("model.subgraph.runs");
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  const size_t n = qid.size();
  const int64_t budget = std::max(config.k, config.max_suppressed);

  // Distinct base vectors with multiplicities.
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  Result<FrequencySet> scanned = FrequencySet::TryCompute(
      table, qid, SubsetNode(dims, std::vector<int32_t>(n, 0)));
  if (!scanned.ok()) return scanned.status();
  const FrequencySet& freq = scanned.value();
  std::vector<std::vector<int32_t>> vectors;
  std::vector<int64_t> counts;
  freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
    vectors.emplace_back(codes, codes + n);
    counts.push_back(count);
  });
  const size_t distinct = vectors.size();

  // Initial cells: one singleton box per distinct vector.
  std::vector<Cell> cells(distinct);
  std::vector<size_t> cell_of(distinct);  // vector index -> cell index
  for (size_t v = 0; v < distinct; ++v) {
    cells[v].levels.assign(n, 0);
    cells[v].codes = vectors[v];
    cell_of[v] = v;
  }

  SubgraphResult result;
  std::vector<int64_t> cell_count;
  while (true) {
    // Group sizes per live cell.
    cell_count.assign(cells.size(), 0);
    for (size_t v = 0; v < distinct; ++v) {
      cell_count[cell_of[v]] += counts[v];
    }
    int64_t below = 0;
    for (size_t v = 0; v < distinct; ++v) {
      if (cell_count[cell_of[v]] < config.k) below += counts[v];
    }
    if (below <= budget) break;

    // Candidate promotions: for each violating cell and promotable
    // dimension, score by the violating tuple mass inside the (un-closed)
    // promoted box.
    std::map<std::pair<std::vector<int32_t>, std::vector<int32_t>>, int64_t>
        scores;  // (levels, codes) -> violating mass
    for (size_t v = 0; v < distinct; ++v) {
      const Cell& cell = cells[cell_of[v]];
      if (cell_count[cell_of[v]] >= config.k) continue;
      for (size_t d = 0; d < n; ++d) {
        const ValueHierarchy& h = qid.hierarchy(d);
        if (static_cast<size_t>(cell.levels[d]) >= h.height()) continue;
        std::vector<int32_t> levels = cell.levels;
        std::vector<int32_t> codes = cell.codes;
        codes[d] = h.Parent(static_cast<size_t>(levels[d]), codes[d]);
        ++levels[d];
        scores[{levels, codes}] += counts[v];
      }
    }
    if (scores.empty()) break;  // nothing promotable; suppress leftovers
    auto best = std::max_element(
        scores.begin(), scores.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });

    // Closure: join every intersecting live cell into the candidate until
    // the candidate's box is disjoint from or contains every live cell.
    Cell candidate;
    candidate.levels = best->first.first;
    candidate.codes = best->first.second;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Cell& cell : cells) {
        if (!cell.alive) continue;
        if (Intersects(qid, candidate, cell) &&
            !Contains(qid, candidate, cell)) {
          JoinInto(qid, cell, &candidate);
          changed = true;
        }
      }
    }
    // Absorb contained cells and reassign their vectors.
    size_t new_index = cells.size();
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].alive && Contains(qid, candidate, cells[c])) {
        cells[c].alive = false;
      }
    }
    cells.push_back(candidate);
    for (size_t v = 0; v < distinct; ++v) {
      if (!cells[cell_of[v]].alive) cell_of[v] = new_index;
    }
    ++result.promotions;
  }

  // Final grouping and materialization; violating leftovers suppressed.
  cell_count.assign(cells.size(), 0);
  for (size_t v = 0; v < distinct; ++v) cell_count[cell_of[v]] += counts[v];
  std::unordered_map<std::vector<int32_t>, size_t, VecHash> vector_index;
  for (size_t v = 0; v < distinct; ++v) vector_index[vectors[v]] = v;

  std::vector<const int32_t*> cols(n);
  std::vector<std::vector<int32_t>> offsets(n);
  std::vector<ViewLabels> replaced(n);
  for (size_t i = 0; i < n; ++i) {
    cols[i] = table.ColumnCodes(qid.column(i)).data();
    replaced[i].column = qid.column(i);
    replaced[i].labels = LabelTexts(qid.hierarchy(i), &offsets[i]);
  }
  std::vector<size_t> released;
  std::vector<int32_t> probe(n);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < n; ++i) probe[i] = cols[i][r];
    size_t v = vector_index.at(probe);
    const Cell& cell = cells[cell_of[v]];
    if (cell_count[cell_of[v]] < config.k) {
      ++result.suppressed_tuples;
      continue;
    }
    released.push_back(r);
    for (size_t i = 0; i < n; ++i) {
      replaced[i].label_of_row.push_back(
          offsets[i][static_cast<size_t>(cell.levels[i])] + cell.codes[i]);
    }
  }
  result.view = BuildView(table, released, std::move(replaced));
  size_t live = 0;
  for (const Cell& cell : cells) live += cell.alive ? 1 : 0;
  result.num_cells = live;
  return result;
}

}  // namespace incognito
