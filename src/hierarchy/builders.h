#ifndef INCOGNITO_HIERARCHY_BUILDERS_H_
#define INCOGNITO_HIERARCHY_BUILDERS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "hierarchy/hierarchy.h"
#include "relation/dictionary.h"

namespace incognito {

/// Builds a hierarchy from per-level labeling functions. `level_fns[l]` maps
/// a *base* value to its label at level l+1; the induced γ maps are derived
/// by grouping. Fails if the labelings are inconsistent, i.e. two base
/// values share a label at some level but not at a higher one (the domains
/// would not form a chain of many-to-one generalizations).
Result<ValueHierarchy> BuildHierarchyFromFunctions(
    std::string attribute_name, const Dictionary& base,
    const std::vector<std::function<Value(const Value&)>>& level_fns);

/// Builder for explicit categorical taxonomy trees (paper Fig. 2(e,f) and
/// the Adults "taxonomy tree" attributes). Register a root-ward path per
/// leaf value, then Build against the column dictionary.
class TaxonomyHierarchyBuilder {
 public:
  explicit TaxonomyHierarchyBuilder(std::string attribute_name)
      : attribute_name_(std::move(attribute_name)) {}

  /// Registers the generalization path of a leaf: `ancestors[l]` is the
  /// label at level l+1 (ordered leaf-ward to root-ward). All paths must
  /// have the same length.
  TaxonomyHierarchyBuilder& AddLeaf(const Value& leaf,
                                    std::vector<Value> ancestors);

  /// Builds the hierarchy over the given base dictionary. Fails if a
  /// dictionary value has no registered path or path lengths disagree.
  /// Registered leaves absent from the dictionary are ignored.
  Result<ValueHierarchy> Build(const Dictionary& base) const;

 private:
  std::string attribute_name_;
  std::map<std::string, std::vector<Value>> paths_;  // keyed on leaf label
  size_t path_length_ = 0;
  bool length_conflict_ = false;
};

/// One-level hierarchy that suppresses every value to `suppressed_label`
/// (paper "Suppression(1)" attributes, e.g. Sex in Fig. 2(e)).
Result<ValueHierarchy> BuildSuppressionHierarchy(
    std::string attribute_name, const Dictionary& base,
    const Value& suppressed_label = Value("*"));

/// Hierarchy over an integer attribute that groups values into aligned
/// ranges of the given widths (paper's Age: 5-, 10-, 20-year ranges). Widths
/// must be strictly increasing and each must divide the next so the range
/// levels nest. If `add_suppression_top` is true a final "*" level is
/// appended (the Adults Age hierarchy has height 4 = 3 range levels + top).
Result<ValueHierarchy> BuildIntervalHierarchy(
    std::string attribute_name, const Dictionary& base,
    const std::vector<int64_t>& widths, bool add_suppression_top = true);

/// Hierarchy over an integer attribute rendered as a fixed-width digit
/// string; level l replaces the last l digits with '*' (paper's Zipcode:
/// 53715 → 5371* → 537** → ... and Lands End "round each digit"). `levels`
/// is the number of rounding steps; the final step (all digits masked) acts
/// as the suppression top when levels == num_digits. `num_digits` must be in
/// [1, 18] (10^18 is the largest power of ten an int64_t holds) and
/// `levels` in [1, num_digits]; otherwise InvalidArgument.
Result<ValueHierarchy> BuildDigitRoundingHierarchy(std::string attribute_name,
                                                   const Dictionary& base,
                                                   size_t num_digits,
                                                   size_t levels);

/// Hierarchy over ISO "YYYY-MM-DD" date strings: day → month → year → '*'
/// (height 3, matching the Lands End Order-date "Taxonomy Tree(3)").
Result<ValueHierarchy> BuildDateHierarchy(std::string attribute_name,
                                          const Dictionary& base);

}  // namespace incognito

#endif  // INCOGNITO_HIERARCHY_BUILDERS_H_
