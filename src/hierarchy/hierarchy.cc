#include "hierarchy/hierarchy.h"

#include <cassert>
#include <numeric>

#include "common/strings.h"

namespace incognito {

int32_t ValueHierarchy::GeneralizeFrom(size_t from_level, int32_t code,
                                       size_t to_level) const {
  assert(from_level <= to_level);
  while (from_level < to_level) {
    code = Parent(from_level, code);
    ++from_level;
  }
  return code;
}

std::vector<int32_t> ValueHierarchy::BaseCodesUnder(size_t level,
                                                    int32_t code) const {
  std::vector<int32_t> out;
  const std::vector<int32_t>& map = base_to_level_[level];
  for (size_t base = 0; base < map.size(); ++base) {
    if (map[base] == code) out.push_back(static_cast<int32_t>(base));
  }
  return out;
}

std::string ValueHierarchy::ToString() const {
  std::string out = "hierarchy '" + attribute_name_ + "' (height " +
                    StringPrintf("%zu", height()) + ")\n";
  for (size_t l = 0; l < num_levels(); ++l) {
    out += StringPrintf("  level %zu (%zu values):", l, DomainSize(l));
    size_t limit = std::min<size_t>(DomainSize(l), 12);
    for (size_t c = 0; c < limit; ++c) {
      out += ' ';
      out += level_values_[l][c].ToString();
    }
    if (limit < DomainSize(l)) out += " ...";
    out += '\n';
  }
  return out;
}

Result<ValueHierarchy> ValueHierarchy::Create(
    std::string attribute_name, std::vector<std::vector<Value>> level_values,
    std::vector<std::vector<int32_t>> parents) {
  if (level_values.empty()) {
    return Status::InvalidArgument("hierarchy must have at least one level");
  }
  if (parents.size() + 1 != level_values.size()) {
    return Status::InvalidArgument(StringPrintf(
        "hierarchy '%s': %zu parent maps but %zu levels (need levels-1)",
        attribute_name.c_str(), parents.size(), level_values.size()));
  }
  for (size_t l = 0; l < parents.size(); ++l) {
    if (parents[l].size() != level_values[l].size()) {
      return Status::InvalidArgument(StringPrintf(
          "hierarchy '%s': parent map at level %zu has %zu entries, domain "
          "has %zu values",
          attribute_name.c_str(), l, parents[l].size(),
          level_values[l].size()));
    }
    for (int32_t p : parents[l]) {
      if (p < 0 || static_cast<size_t>(p) >= level_values[l + 1].size()) {
        return Status::OutOfRange(StringPrintf(
            "hierarchy '%s': parent code %d at level %zu out of range",
            attribute_name.c_str(), p, l));
      }
    }
  }

  ValueHierarchy h;
  h.attribute_name_ = std::move(attribute_name);
  h.level_values_ = std::move(level_values);
  h.parents_ = std::move(parents);

  // Precompute base→level composition tables.
  size_t base_size = h.level_values_[0].size();
  h.base_to_level_.resize(h.num_levels());
  h.base_to_level_[0].resize(base_size);
  std::iota(h.base_to_level_[0].begin(), h.base_to_level_[0].end(), 0);
  for (size_t l = 1; l < h.num_levels(); ++l) {
    h.base_to_level_[l].resize(base_size);
    for (size_t b = 0; b < base_size; ++b) {
      h.base_to_level_[l][b] =
          h.parents_[l - 1][static_cast<size_t>(h.base_to_level_[l - 1][b])];
    }
  }
  return h;
}

std::vector<std::string> LabelTexts(const ValueHierarchy& hierarchy,
                                    std::vector<int32_t>* offsets) {
  std::vector<std::string> texts;
  offsets->clear();
  for (size_t level = 0; level < hierarchy.num_levels(); ++level) {
    offsets->push_back(static_cast<int32_t>(texts.size()));
    for (const Value& label : hierarchy.level_values(level)) {
      texts.push_back(label.ToString());
    }
  }
  return texts;
}

}  // namespace incognito
