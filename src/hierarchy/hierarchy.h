#ifndef INCOGNITO_HIERARCHY_HIERARCHY_H_
#define INCOGNITO_HIERARCHY_HIERARCHY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/dictionary.h"
#include "relation/value.h"

namespace incognito {

/// A domain generalization hierarchy (DGH) together with its induced value
/// generalization hierarchy (paper Section 2, Figure 2).
///
/// Levels are numbered 0 (the base, most specific domain — aligned with the
/// dictionary codes of a table column) through height() (the most general
/// domain). Each level has its own value dictionary; the many-to-one value
/// generalization function γ between consecutive domains is stored as a
/// parent-code array per level, and the compositions γ+ from the base level
/// are precomputed so Generalize() is a single array lookup.
class ValueHierarchy {
 public:
  ValueHierarchy() = default;

  /// The number of generalization steps (edges in the DGH chain). The
  /// hierarchy has height()+1 domains.
  size_t height() const { return parents_.size(); }

  /// The number of domains (levels), i.e. height() + 1.
  size_t num_levels() const { return level_values_.size(); }

  /// Number of distinct values in the domain at `level`.
  size_t DomainSize(size_t level) const { return level_values_[level].size(); }

  /// γ: maps a code at `level` to its code at `level`+1.
  /// Requires level < height().
  int32_t Parent(size_t level, int32_t code) const {
    return parents_[level][static_cast<size_t>(code)];
  }

  /// γ+ from the base: maps a level-0 code directly to its code at
  /// `to_level`. O(1) via precomputed composition tables.
  int32_t Generalize(int32_t base_code, size_t to_level) const {
    return base_to_level_[to_level][static_cast<size_t>(base_code)];
  }

  /// γ+ between arbitrary levels: maps a code at `from_level` to its code at
  /// `to_level`. Requires from_level <= to_level.
  int32_t GeneralizeFrom(size_t from_level, int32_t code,
                         size_t to_level) const;

  /// The whole base→to_level composition table (hot path for rollup).
  const std::vector<int32_t>& BaseToLevelMap(size_t to_level) const {
    return base_to_level_[to_level];
  }

  /// The label of a code in the domain at `level`.
  const Value& LevelValue(size_t level, int32_t code) const {
    return level_values_[level][static_cast<size_t>(code)];
  }

  /// All labels at one level.
  const std::vector<Value>& level_values(size_t level) const {
    return level_values_[level];
  }

  /// Returns true iff `general` (a code at `general_level`) is the γ+ image
  /// of `base_code`; i.e. general generalizes the base value.
  bool IsAncestor(int32_t base_code, size_t general_level,
                  int32_t general) const {
    return Generalize(base_code, general_level) == general;
  }

  /// Returns the base-level codes whose γ+ image at `level` equals `code`
  /// (the subtree of the value generalization hierarchy rooted there).
  std::vector<int32_t> BaseCodesUnder(size_t level, int32_t code) const;

  const std::string& attribute_name() const { return attribute_name_; }

  /// Human-readable dump of all levels for diagnostics.
  std::string ToString() const;

  /// Constructs a hierarchy from explicit per-level label tables and parent
  /// maps. `level_values[l]` are the labels of the domain at level l;
  /// `parents[l][c]` is the level-(l+1) code of level-l code c. Validates
  /// shape (see also CheckWellFormed in validation.h for deep checks).
  static Result<ValueHierarchy> Create(
      std::string attribute_name, std::vector<std::vector<Value>> level_values,
      std::vector<std::vector<int32_t>> parents);

 private:
  std::string attribute_name_;
  // parents_[l][code_at_l] -> code at l+1; size height().
  std::vector<std::vector<int32_t>> parents_;
  // base_to_level_[l][base_code] -> code at l; size num_levels();
  // base_to_level_[0] is the identity.
  std::vector<std::vector<int32_t>> base_to_level_;
  // level_values_[l][code] -> display label; size num_levels().
  std::vector<std::vector<Value>> level_values_;
};

/// Every label of `hierarchy` as text, level 0 first. `offsets` receives
/// the index of each level's first label, so the text of `code` at `level`
/// is element offsets[level] + code. Local-recoding models label a view's
/// cells from it (relation/view.h).
std::vector<std::string> LabelTexts(const ValueHierarchy& hierarchy,
                                    std::vector<int32_t>* offsets);

}  // namespace incognito

#endif  // INCOGNITO_HIERARCHY_HIERARCHY_H_
