#include "models/cell_generalization.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>
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

}  // namespace

Result<CellGeneralizationResult> RunCellGeneralization(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config) {
  INCOGNITO_SPAN("model.cell_generalization");
  INCOGNITO_COUNT("model.cell_generalization.runs");
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  const size_t n = qid.size();
  const size_t rows = table.num_rows();

  // Per-tuple, per-attribute generalization level (local recoding state).
  std::vector<std::vector<int32_t>> level(rows, std::vector<int32_t>(n, 0));
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }
  // The grouping key of a cell is (level, generalized code) so that values
  // at different levels never collide.
  auto cell_key = [&](size_t r, size_t i) {
    int32_t l = level[r][i];
    int32_t code =
        qid.hierarchy(i).Generalize(cols[i][r], static_cast<size_t>(l));
    return std::pair<int32_t, int32_t>(l, code);
  };

  CellGeneralizationResult result;
  std::vector<bool> violating(rows, false);
  std::vector<bool> removed(rows, false);
  while (true) {
    std::unordered_map<std::vector<int32_t>, int64_t, VecHash> groups;
    std::vector<std::vector<int32_t>> keys(rows,
                                           std::vector<int32_t>(2 * n));
    for (size_t r = 0; r < rows; ++r) {
      if (removed[r]) continue;
      for (size_t i = 0; i < n; ++i) {
        auto [l, code] = cell_key(r, i);
        keys[r][2 * i] = l;
        keys[r][2 * i + 1] = code;
      }
      ++groups[keys[r]];
    }
    int64_t below = 0;
    for (size_t r = 0; r < rows; ++r) {
      violating[r] = !removed[r] && groups[keys[r]] < config.k;
      if (violating[r]) ++below;
    }
    if (below == 0) break;

    // Attribute with the most distinct current cell values among the
    // violating tuples, among those still below their hierarchy top.
    std::vector<std::unordered_set<int64_t>> distinct(n);
    bool any_promotable = false;
    for (size_t r = 0; r < rows; ++r) {
      if (!violating[r]) continue;
      for (size_t i = 0; i < n; ++i) {
        if (static_cast<size_t>(level[r][i]) < qid.hierarchy(i).height()) {
          auto [l, code] = cell_key(r, i);
          distinct[i].insert((static_cast<int64_t>(l) << 32) |
                             static_cast<uint32_t>(code));
          any_promotable = true;
        }
      }
    }
    if (!any_promotable) {
      // Every violating cell is at the top: the tuples are mutually
      // identical ('*' everywhere) yet still fewer than k — remove them.
      for (size_t r = 0; r < rows; ++r) {
        if (violating[r]) {
          removed[r] = true;
          ++result.tuples_suppressed;
        }
      }
      break;
    }
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (distinct[i].size() > distinct[best].size()) best = i;
    }
    for (size_t r = 0; r < rows; ++r) {
      if (violating[r] &&
          static_cast<size_t>(level[r][best]) < qid.hierarchy(best).height()) {
        ++level[r][best];
        ++result.cells_generalized;
      }
    }
  }

  // Materialize the view.
  std::vector<size_t> released;
  for (size_t r = 0; r < rows; ++r) {
    if (!removed[r]) released.push_back(r);
  }
  std::vector<ViewLabels> replaced(n);
  std::vector<int32_t> offsets;
  for (size_t i = 0; i < n; ++i) {
    const ValueHierarchy& h = qid.hierarchy(i);
    replaced[i].column = qid.column(i);
    replaced[i].labels = LabelTexts(h, &offsets);
    for (size_t r : released) {
      size_t l = static_cast<size_t>(level[r][i]);
      replaced[i].label_of_row.push_back(offsets[l] +
                                         h.Generalize(cols[i][r], l));
    }
  }
  result.view = BuildView(table, released, std::move(replaced));
  return result;
}

}  // namespace incognito
