#include "models/subtree.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/strings.h"
#include "obs/obs.h"
#include "relation/view.h"

namespace incognito {

namespace {

/// Per-attribute recoding state: for each base code, the level its value
/// is currently generalized to. The full-subtree invariant is maintained
/// by construction: promotions always lift every base code under the new
/// ancestor to the same level.
struct AttributeCut {
  std::vector<int32_t> level_of_base;  // indexed by base code

  /// The generalized (level, code) of a base code under this cut.
  std::pair<int32_t, int32_t> Image(const ValueHierarchy& h,
                                    int32_t base) const {
    int32_t level = level_of_base[static_cast<size_t>(base)];
    return {level, h.Generalize(base, static_cast<size_t>(level))};
  }
};

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

Result<SubtreeResult> RunGreedySubtree(const Table& table,
                                       const QuasiIdentifier& qid,
                                       const AnonymizationConfig& config) {
  INCOGNITO_SPAN("model.subtree");
  INCOGNITO_COUNT("model.subtree.runs");
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  const size_t n = qid.size();
  const size_t rows = table.num_rows();
  const int64_t budget = std::max(config.k, config.max_suppressed);

  std::vector<AttributeCut> cuts(n);
  for (size_t i = 0; i < n; ++i) {
    cuts[i].level_of_base.assign(qid.hierarchy(i).DomainSize(0), 0);
  }
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }

  SubtreeResult result;
  // Interned (attr, level, code) triple per cell; group key = the n ids.
  // Recomputed each round (rounds are few: every promotion strictly
  // coarsens one attribute).
  std::vector<bool> violating(rows, false);
  while (true) {
    // Group rows by their current generalized images.
    std::unordered_map<std::vector<int32_t>, int64_t, VecHash> groups;
    std::vector<std::vector<int32_t>> keys(rows,
                                           std::vector<int32_t>(n * 2));
    for (size_t r = 0; r < rows; ++r) {
      std::vector<int32_t>& key = keys[r];
      for (size_t i = 0; i < n; ++i) {
        auto [level, code] = cuts[i].Image(qid.hierarchy(i), cols[i][r]);
        key[2 * i] = level;
        key[2 * i + 1] = code;
      }
      ++groups[key];
    }
    int64_t below = 0;
    for (size_t r = 0; r < rows; ++r) {
      violating[r] = groups[keys[r]] < config.k;
      if (violating[r]) ++below;
    }
    if (below <= budget) break;

    // Candidate promotions: for each violating tuple and attribute, lift
    // the subtree rooted at the parent of the tuple's current image.
    // Score = number of violating tuples whose image lies under that
    // parent. Pick the best-scoring candidate.
    std::map<std::tuple<size_t, int32_t, int32_t>, int64_t> scores;
    for (size_t r = 0; r < rows; ++r) {
      if (!violating[r]) continue;
      for (size_t i = 0; i < n; ++i) {
        const ValueHierarchy& h = qid.hierarchy(i);
        auto [level, code] = cuts[i].Image(h, cols[i][r]);
        if (static_cast<size_t>(level) >= h.height()) continue;
        int32_t parent = h.Parent(static_cast<size_t>(level), code);
        ++scores[{i, level + 1, parent}];
      }
    }
    if (scores.empty()) break;  // nothing left to generalize
    auto best = std::max_element(
        scores.begin(), scores.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    auto [attr, new_level, parent] = best->first;

    // Apply the promotion while preserving the full-subtree invariant: if
    // some base under the new ancestor is already generalized higher, the
    // two subtrees overlap, so the lift target must rise to cover it —
    // iterate to a fixpoint, then move the whole covered subtree to the
    // target level.
    const ValueHierarchy& h = qid.hierarchy(attr);
    int32_t target_level = new_level;
    int32_t target_code = parent;
    while (true) {
      int32_t max_level = target_level;
      for (size_t base = 0; base < cuts[attr].level_of_base.size(); ++base) {
        if (h.Generalize(static_cast<int32_t>(base),
                         static_cast<size_t>(target_level)) == target_code) {
          max_level = std::max(max_level, cuts[attr].level_of_base[base]);
        }
      }
      if (max_level == target_level) break;
      target_code = h.GeneralizeFrom(static_cast<size_t>(target_level),
                                     target_code,
                                     static_cast<size_t>(max_level));
      target_level = max_level;
    }
    for (size_t base = 0; base < cuts[attr].level_of_base.size(); ++base) {
      if (h.Generalize(static_cast<int32_t>(base),
                       static_cast<size_t>(target_level)) == target_code) {
        cuts[attr].level_of_base[base] = target_level;
      }
    }
    ++result.promotions;
  }

  // Materialize the view: violating leftovers suppressed, QID columns
  // stringified with their generalized labels.
  std::vector<size_t> released;
  for (size_t r = 0; r < rows; ++r) {
    if (violating[r]) {
      ++result.suppressed_tuples;
    } else {
      released.push_back(r);
    }
  }
  std::vector<ViewLabels> replaced(n);
  std::vector<int32_t> offsets;
  for (size_t i = 0; i < n; ++i) {
    const ValueHierarchy& h = qid.hierarchy(i);
    replaced[i].column = qid.column(i);
    replaced[i].labels = LabelTexts(h, &offsets);
    for (size_t r : released) {
      auto [level, code] = cuts[i].Image(h, cols[i][r]);
      replaced[i].label_of_row.push_back(
          offsets[static_cast<size_t>(level)] + code);
    }
  }
  result.view = BuildView(table, released, std::move(replaced));
  return result;
}

}  // namespace incognito
