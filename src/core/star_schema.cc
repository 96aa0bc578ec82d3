#include "core/star_schema.h"

#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "relation/ops.h"

namespace incognito {

Table MakeDimensionTable(const ValueHierarchy& hierarchy) {
  std::vector<ColumnSpec> specs;
  for (size_t level = 0; level < hierarchy.num_levels(); ++level) {
    ColumnSpec spec;
    spec.name = StringPrintf("%s_%zu", hierarchy.attribute_name().c_str(),
                             level);
    // Level 0 carries the base values (original type inferred from the
    // first value); higher levels carry labels.
    const Value& sample = hierarchy.LevelValue(level, 0);
    spec.type = sample.is_int64()   ? DataType::kInt64
                : sample.is_double() ? DataType::kDouble
                                     : DataType::kString;
    specs.push_back(std::move(spec));
  }
  Table out{Schema(std::move(specs))};
  std::vector<Value> row(hierarchy.num_levels());
  for (size_t base = 0; base < hierarchy.DomainSize(0); ++base) {
    for (size_t level = 0; level < hierarchy.num_levels(); ++level) {
      row[level] = hierarchy.LevelValue(
          level, hierarchy.Generalize(static_cast<int32_t>(base), level));
    }
    Status appended = out.AppendRow(row);
    (void)appended;  // Types match by construction.
  }
  return out;
}

Result<RecodeResult> RecodeViaStarJoin(const Table& table,
                                       const QuasiIdentifier& qid,
                                       const SubsetNode& node,
                                       const AnonymizationConfig& config) {
  INCOGNITO_RETURN_IF_ERROR(CheckFullQidNode(qid, node));

  // Join T with each dimension table and substitute the generalized level
  // column for the original attribute. (A DBMS would fold all joins into
  // one plan; we apply them one attribute at a time.)
  Table view = table;
  for (size_t i = 0; i < qid.size(); ++i) {
    size_t level = static_cast<size_t>(node.levels[i]);
    if (level == 0) continue;  // base values stay as-is
    Table dimension = MakeDimensionTable(qid.hierarchy(i));
    const std::string base_col = qid.name(i) + "_0";
    const std::string level_col =
        StringPrintf("%s_%zu", qid.name(i).c_str(), level);
    Result<Table> joined = HashJoin(view, qid.name(i), dimension, base_col);
    if (!joined.ok()) return joined.status();

    // Project back to the original column list, with the generalized
    // level column standing in for the attribute.
    std::vector<std::string> columns;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const std::string& name = table.schema().column(c).name;
      columns.push_back(name == qid.name(i) ? level_col : name);
    }
    Result<Table> projected = ProjectColumns(joined.value(), columns);
    if (!projected.ok()) return projected.status();
    view = std::move(projected).value();
    // Restore the original column name for subsequent joins/projections.
    std::vector<ColumnSpec> specs(view.schema().columns());
    for (ColumnSpec& spec : specs) {
      if (spec.name == level_col) spec.name = qid.name(i);
    }
    Table renamed{Schema(std::move(specs))};
    for (size_t r = 0; r < view.num_rows(); ++r) {
      INCOGNITO_RETURN_IF_ERROR(renamed.AppendRow(view.GetRow(r)));
    }
    view = std::move(renamed);
  }

  // Suppression: GROUP BY the generalized quasi-identifier, collect the
  // undersized groups, filter them out (the §2.1 threshold).
  std::vector<std::string> qid_names;
  for (size_t i = 0; i < qid.size(); ++i) qid_names.push_back(qid.name(i));
  Result<Table> groups = GroupByCount(view, qid_names);
  if (!groups.ok()) return groups.status();

  std::unordered_set<std::string> undersized;
  int64_t to_suppress = 0;
  auto group_key = [&](const Table& t, size_t row, size_t num_cols) {
    std::string key;
    for (size_t c = 0; c < num_cols; ++c) {
      key += t.GetValue(row, c).ToString();
      key += '\x1f';
    }
    return key;
  };
  for (size_t r = 0; r < groups->num_rows(); ++r) {
    int64_t count = groups->GetValue(r, qid.size()).int64();
    if (count < config.k) {
      undersized.insert(group_key(groups.value(), r, qid.size()));
      to_suppress += count;
    }
  }
  if (to_suppress > config.max_suppressed) {
    return Status::FailedPrecondition(StringPrintf(
        "generalization %s is not %lld-anonymous: %lld tuples in undersized "
        "groups exceed the suppression budget %lld",
        node.ToString(&qid).c_str(), static_cast<long long>(config.k),
        static_cast<long long>(to_suppress),
        static_cast<long long>(config.max_suppressed)));
  }

  RecodeResult result;
  std::vector<bool> keep(view.num_rows(), true);
  if (to_suppress > 0) {
    // Map each view row's QID rendering against the undersized set.
    std::vector<size_t> qid_cols;
    for (const std::string& name : qid_names) {
      qid_cols.push_back(
          static_cast<size_t>(view.schema().FindColumn(name)));
    }
    for (size_t r = 0; r < view.num_rows(); ++r) {
      std::string key;
      for (size_t c : qid_cols) {
        key += view.GetValue(r, c).ToString();
        key += '\x1f';
      }
      if (undersized.count(key) > 0) {
        keep[r] = false;
        ++result.suppressed_tuples;
      }
    }
  }
  result.view = view.FilterRows(keep);
  return result;
}

}  // namespace incognito
