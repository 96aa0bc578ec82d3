#include "service/problem_loader.h"

#include <cstdint>
#include <utility>

#include "common/strings.h"
#include "hierarchy/builders.h"
#include "hierarchy/csv_hierarchy.h"
#include "relation/binary_io.h"
#include "relation/csv.h"

namespace incognito {

Result<ValueHierarchy> BuildHierarchyFromSpec(const std::string& column,
                                              const std::string& spec,
                                              const Dictionary& dict) {
  std::vector<std::string> parts = Split(spec, ':');
  const std::string& kind = parts[0];
  if (kind == "file") {
    if (parts.size() != 2) {
      return Status::InvalidArgument("file spec needs a path: file:PATH");
    }
    return ReadHierarchyCsv(column, parts[1], dict);
  }
  if (kind == "suppress") {
    return BuildSuppressionHierarchy(column, dict);
  }
  if (kind == "interval") {
    std::vector<int64_t> widths;
    for (size_t i = 1; i < parts.size(); ++i) {
      int64_t w = 0;
      if (!ParseInt64(parts[i], &w)) {
        return Status::InvalidArgument("bad interval width '" + parts[i] +
                                       "'");
      }
      widths.push_back(w);
    }
    if (widths.empty()) {
      return Status::InvalidArgument("interval spec needs widths");
    }
    return BuildIntervalHierarchy(column, dict, widths);
  }
  if (kind == "digits") {
    if (parts.size() != 3) {
      return Status::InvalidArgument("digits spec is digits:NUM:LEVELS");
    }
    int64_t num = 0, levels = 0;
    if (!ParseInt64(parts[1], &num) || !ParseInt64(parts[2], &levels) ||
        num < 0 || levels < 0) {
      return Status::InvalidArgument("bad digits spec '" + spec + "'");
    }
    return BuildDigitRoundingHierarchy(column, dict,
                                       static_cast<size_t>(num),
                                       static_cast<size_t>(levels));
  }
  if (kind == "date") {
    return BuildDateHierarchy(column, dict);
  }
  return Status::InvalidArgument("unknown hierarchy spec kind '" + kind +
                                 "'");
}

Result<LoadedProblem> LoadProblem(
    const std::string& input, const std::vector<std::string>& qid_names,
    const std::map<std::string, std::string>& specs) {
  if (input.empty()) return Status::InvalidArgument("input is required");
  Result<Table> table = input.size() > 5 &&
                                input.substr(input.size() - 5) == ".inct"
                            ? ReadTableBinary(input)
                            : ReadCsv(input);
  if (!table.ok()) return table.status();

  if (qid_names.empty() || qid_names[0].empty()) {
    return Status::InvalidArgument(
        "a non-empty quasi-identifier attribute list is required");
  }
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (const std::string& name : qid_names) {
    Result<size_t> col = table->schema().ColumnIndex(name);
    if (!col.ok()) return col.status();
    auto it = specs.find(name);
    if (it == specs.end()) {
      return Status::InvalidArgument(
          "no hierarchy spec for quasi-identifier attribute '" + name + "'");
    }
    Result<ValueHierarchy> h = BuildHierarchyFromSpec(
        name, it->second, table->dictionary(col.value()));
    if (!h.ok()) return h.status();
    hierarchies.emplace_back(name, std::move(h).value());
  }
  Result<QuasiIdentifier> qid =
      QuasiIdentifier::Create(table.value(), std::move(hierarchies));
  if (!qid.ok()) return qid.status();
  LoadedProblem out;
  out.table = std::move(table).value();
  out.qid = std::move(qid).value();
  return out;
}

}  // namespace incognito
