#include "hierarchy/builders.h"

#include <unordered_map>

#include "common/strings.h"

namespace incognito {

Result<ValueHierarchy> BuildHierarchyFromFunctions(
    std::string attribute_name, const Dictionary& base,
    const std::vector<std::function<Value(const Value&)>>& level_fns) {
  size_t base_size = base.size();
  if (base_size == 0) {
    return Status::InvalidArgument("hierarchy '" + attribute_name +
                                   "': base domain is empty");
  }
  size_t num_gen_levels = level_fns.size();

  // level_values[0] mirrors the base dictionary.
  std::vector<std::vector<Value>> level_values(num_gen_levels + 1);
  std::vector<std::vector<int32_t>> parents(num_gen_levels);
  level_values[0].reserve(base_size);
  for (size_t b = 0; b < base_size; ++b) {
    level_values[0].push_back(base.value(static_cast<int32_t>(b)));
  }

  // base_at_level[b] = code of base value b in the previous level processed.
  std::vector<int32_t> prev_code(base_size);
  for (size_t b = 0; b < base_size; ++b) {
    prev_code[b] = static_cast<int32_t>(b);
  }

  for (size_t l = 0; l < num_gen_levels; ++l) {
    Dictionary level_dict;
    std::vector<int32_t> cur_code(base_size);
    parents[l].assign(level_values[l].size(), -1);
    for (size_t b = 0; b < base_size; ++b) {
      Value label = level_fns[l](base.value(static_cast<int32_t>(b)));
      cur_code[b] = level_dict.GetOrInsert(label);
      int32_t p = prev_code[b];
      if (parents[l][static_cast<size_t>(p)] == -1) {
        parents[l][static_cast<size_t>(p)] = cur_code[b];
      } else if (parents[l][static_cast<size_t>(p)] != cur_code[b]) {
        return Status::InvalidArgument(StringPrintf(
            "hierarchy '%s': inconsistent labeling at level %zu — value '%s' "
            "groups with two different level-%zu labels",
            attribute_name.c_str(),
            l + 1, base.value(static_cast<int32_t>(b)).ToString().c_str(),
            l + 1));
      }
    }
    level_values[l + 1].reserve(level_dict.size());
    for (size_t c = 0; c < level_dict.size(); ++c) {
      level_values[l + 1].push_back(level_dict.value(static_cast<int32_t>(c)));
    }
    prev_code = std::move(cur_code);
  }

  return ValueHierarchy::Create(std::move(attribute_name),
                                std::move(level_values), std::move(parents));
}

TaxonomyHierarchyBuilder& TaxonomyHierarchyBuilder::AddLeaf(
    const Value& leaf, std::vector<Value> ancestors) {
  if (path_length_ == 0 && paths_.empty()) {
    path_length_ = ancestors.size();
  } else if (ancestors.size() != path_length_) {
    length_conflict_ = true;
  }
  paths_[leaf.ToString()] = std::move(ancestors);
  return *this;
}

Result<ValueHierarchy> TaxonomyHierarchyBuilder::Build(
    const Dictionary& base) const {
  if (length_conflict_) {
    return Status::InvalidArgument("taxonomy '" + attribute_name_ +
                                   "': leaf paths have differing lengths");
  }
  if (path_length_ == 0) {
    return Status::InvalidArgument("taxonomy '" + attribute_name_ +
                                   "': no generalization levels registered");
  }
  // Verify every dictionary value has a path before building.
  for (size_t b = 0; b < base.size(); ++b) {
    const Value& leaf = base.value(static_cast<int32_t>(b));
    if (paths_.find(leaf.ToString()) == paths_.end()) {
      return Status::NotFound("taxonomy '" + attribute_name_ +
                              "': no path registered for value '" +
                              leaf.ToString() + "'");
    }
  }
  std::vector<std::function<Value(const Value&)>> fns;
  fns.reserve(path_length_);
  for (size_t l = 0; l < path_length_; ++l) {
    fns.push_back([this, l](const Value& leaf) {
      return paths_.at(leaf.ToString())[l];
    });
  }
  return BuildHierarchyFromFunctions(attribute_name_, base, fns);
}

Result<ValueHierarchy> BuildSuppressionHierarchy(std::string attribute_name,
                                                 const Dictionary& base,
                                                 const Value& label) {
  std::vector<std::function<Value(const Value&)>> fns = {
      [label](const Value&) { return label; }};
  return BuildHierarchyFromFunctions(std::move(attribute_name), base, fns);
}

Result<ValueHierarchy> BuildIntervalHierarchy(
    std::string attribute_name, const Dictionary& base,
    const std::vector<int64_t>& widths, bool add_suppression_top) {
  for (size_t b = 0; b < base.size(); ++b) {
    if (!base.value(static_cast<int32_t>(b)).is_int64()) {
      return Status::InvalidArgument(
          "interval hierarchy '" + attribute_name +
          "': base domain contains non-integer value '" +
          base.value(static_cast<int32_t>(b)).ToString() + "'");
    }
  }
  for (size_t i = 0; i < widths.size(); ++i) {
    if (widths[i] <= 0) {
      return Status::InvalidArgument("interval hierarchy '" + attribute_name +
                                     "': widths must be positive");
    }
    if (i > 0 && (widths[i] <= widths[i - 1] || widths[i] % widths[i - 1] != 0)) {
      return Status::InvalidArgument(
          "interval hierarchy '" + attribute_name +
          "': widths must be strictly increasing and nested (each divides "
          "the next)");
    }
  }
  std::vector<std::function<Value(const Value&)>> fns;
  for (int64_t w : widths) {
    fns.push_back([w](const Value& v) {
      // Floor-divide so negative values align correctly too.
      int64_t x = v.int64();
      int64_t lo = (x >= 0 ? x / w : (x - w + 1) / w) * w;
      return Value(StringPrintf("[%lld-%lld]", static_cast<long long>(lo),
                                static_cast<long long>(lo + w - 1)));
    });
  }
  if (add_suppression_top) {
    fns.push_back([](const Value&) { return Value("*"); });
  }
  return BuildHierarchyFromFunctions(std::move(attribute_name), base, fns);
}

Result<ValueHierarchy> BuildDigitRoundingHierarchy(std::string attribute_name,
                                                   const Dictionary& base,
                                                   size_t num_digits,
                                                   size_t levels) {
  // 10^18 is the largest power of ten an int64_t holds.
  if (num_digits < 1 || num_digits > 18) {
    return Status::InvalidArgument(StringPrintf(
        "digit hierarchy '%s': num_digits (%zu) must be in [1, 18]",
        attribute_name.c_str(), num_digits));
  }
  if (levels == 0 || levels > num_digits) {
    return Status::InvalidArgument(StringPrintf(
        "digit hierarchy '%s': levels (%zu) must be in [1, num_digits=%zu]",
        attribute_name.c_str(), levels, num_digits));
  }
  int64_t max_representable = 1;
  for (size_t d = 0; d < num_digits; ++d) max_representable *= 10;
  for (size_t b = 0; b < base.size(); ++b) {
    const Value& v = base.value(static_cast<int32_t>(b));
    if (!v.is_int64() || v.int64() < 0 || v.int64() >= max_representable) {
      return Status::InvalidArgument(StringPrintf(
          "digit hierarchy '%s': value '%s' is not an integer in [0, 10^%zu)",
          attribute_name.c_str(), v.ToString().c_str(), num_digits));
    }
  }
  std::vector<std::function<Value(const Value&)>> fns;
  for (size_t l = 1; l <= levels; ++l) {
    fns.push_back([num_digits, l](const Value& v) {
      std::string digits =
          StringPrintf("%0*lld", static_cast<int>(num_digits),
                       static_cast<long long>(v.int64()));
      for (size_t i = 0; i < l; ++i) digits[num_digits - 1 - i] = '*';
      return Value(digits);
    });
  }
  return BuildHierarchyFromFunctions(std::move(attribute_name), base, fns);
}

Result<ValueHierarchy> BuildDateHierarchy(std::string attribute_name,
                                          const Dictionary& base) {
  for (size_t b = 0; b < base.size(); ++b) {
    const Value& v = base.value(static_cast<int32_t>(b));
    if (!v.is_string() || v.str().size() != 10 || v.str()[4] != '-' ||
        v.str()[7] != '-') {
      return Status::InvalidArgument(
          "date hierarchy '" + attribute_name + "': value '" + v.ToString() +
          "' is not an ISO YYYY-MM-DD date");
    }
  }
  std::vector<std::function<Value(const Value&)>> fns = {
      [](const Value& v) { return Value(v.str().substr(0, 7)); },   // YYYY-MM
      [](const Value& v) { return Value(v.str().substr(0, 4)); },   // YYYY
      [](const Value&) { return Value("*"); },
  };
  return BuildHierarchyFromFunctions(std::move(attribute_name), base, fns);
}

}  // namespace incognito
