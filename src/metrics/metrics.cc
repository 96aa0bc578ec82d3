#include "metrics/metrics.h"

#include <algorithm>
#include <unordered_map>

#include "common/strings.h"
#include "freq/frequency_set.h"

namespace incognito {

std::string QualityReport::ToString() const {
  return StringPrintf(
      "height=%d classes=%lld avg_class=%.2f discern=%.3g prec=%.4f "
      "lm=%.4f suppressed=%lld",
      height, static_cast<long long>(num_classes), avg_class_size,
      discernibility, precision, loss_metric,
      static_cast<long long>(suppressed));
}

Result<QualityReport> EvaluateFullDomain(const Table& table,
                                         const QuasiIdentifier& qid,
                                         const SubsetNode& node,
                                         const AnonymizationConfig& config) {
  if (node.size() != qid.size()) {
    return Status::InvalidArgument(
        "node must generalize the full quasi-identifier");
  }
  QualityReport report;
  report.height = node.Height();

  Result<FrequencySet> scanned = FrequencySet::TryCompute(table, qid, node);
  if (!scanned.ok()) return scanned.status();
  const FrequencySet& freq = scanned.value();
  const size_t n = qid.size();
  const double total = static_cast<double>(table.num_rows());

  // Leaves under each generalized value, per attribute, for the loss
  // metric (precomputed per level-domain value).
  std::vector<std::vector<int64_t>> leaves_under(n);
  for (size_t i = 0; i < n; ++i) {
    const ValueHierarchy& h = qid.hierarchy(i);
    size_t level = static_cast<size_t>(node.levels[i]);
    leaves_under[i].assign(h.DomainSize(level), 0);
    const std::vector<int32_t>& map = h.BaseToLevelMap(level);
    for (int32_t target : map) ++leaves_under[i][static_cast<size_t>(target)];
  }

  int64_t released = 0;
  double weighted_lm = 0;  // Σ over released cells of per-cell loss
  freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
    if (count < config.k) {
      report.suppressed += count;
      return;
    }
    ++report.num_classes;
    released += count;
    report.discernibility += static_cast<double>(count) * count;
    for (size_t i = 0; i < n; ++i) {
      double domain = static_cast<double>(qid.hierarchy(i).DomainSize(0));
      if (domain > 1) {
        double leaves = static_cast<double>(
            leaves_under[i][static_cast<size_t>(codes[i])]);
        weighted_lm += count * (leaves - 1) / (domain - 1);
      }
    }
  });
  report.discernibility += total * static_cast<double>(report.suppressed);
  report.avg_class_size =
      report.num_classes > 0
          ? static_cast<double>(released) / report.num_classes
          : 0;

  // Precision: identical for every tuple under full-domain recoding.
  double level_ratio = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t height = qid.hierarchy(i).height();
    if (height > 0) {
      level_ratio +=
          static_cast<double>(node.levels[i]) / static_cast<double>(height);
    }
  }
  report.precision = 1.0 - level_ratio / static_cast<double>(n);
  report.loss_metric =
      released > 0 ? weighted_lm / (static_cast<double>(released) * n) : 0;
  return report;
}

namespace {

Result<std::unordered_map<std::string, int64_t>> GroupView(
    const Table& view, const std::vector<std::string>& qid_columns) {
  std::vector<size_t> cols;
  cols.reserve(qid_columns.size());
  for (const std::string& name : qid_columns) {
    Result<size_t> idx = view.schema().ColumnIndex(name);
    if (!idx.ok()) return idx.status();
    cols.push_back(idx.value());
  }
  std::unordered_map<std::string, int64_t> groups;
  for (size_t r = 0; r < view.num_rows(); ++r) {
    std::string key;
    for (size_t c : cols) {
      key += view.GetValue(r, c).ToString();
      key += '\x1f';
    }
    ++groups[key];
  }
  return groups;
}

}  // namespace

Result<QualityReport> EvaluateView(const Table& view,
                                   const std::vector<std::string>& qid_columns,
                                   int64_t original_rows) {
  Result<std::unordered_map<std::string, int64_t>> groups =
      GroupView(view, qid_columns);
  if (!groups.ok()) return groups.status();

  QualityReport report;
  report.suppressed = original_rows - static_cast<int64_t>(view.num_rows());
  int64_t released = 0;
  for (const auto& [key, count] : groups.value()) {
    (void)key;
    ++report.num_classes;
    released += count;
    report.discernibility += static_cast<double>(count) * count;
  }
  report.discernibility +=
      static_cast<double>(original_rows) * report.suppressed;
  report.avg_class_size =
      report.num_classes > 0
          ? static_cast<double>(released) / report.num_classes
          : 0;
  return report;
}

Result<std::vector<int64_t>> ClassSizes(
    const Table& view, const std::vector<std::string>& qid_columns) {
  Result<std::unordered_map<std::string, int64_t>> groups =
      GroupView(view, qid_columns);
  if (!groups.ok()) return groups.status();
  std::vector<int64_t> sizes;
  sizes.reserve(groups.value().size());
  for (const auto& [key, count] : groups.value()) {
    (void)key;
    sizes.push_back(count);
  }
  std::sort(sizes.rbegin(), sizes.rend());
  return sizes;
}

}  // namespace incognito
