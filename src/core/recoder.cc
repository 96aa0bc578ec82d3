#include "core/recoder.h"

#include <algorithm>

#include "common/strings.h"
#include "freq/frequency_set.h"
#include "relation/view.h"

namespace incognito {

Result<RecodeResult> ApplyFullDomainGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const AnonymizationConfig& config) {
  INCOGNITO_RETURN_IF_ERROR(CheckFullQidNode(qid, node));

  // Identify the tuples to suppress: members of groups smaller than k.
  Result<FrequencySet> scanned = FrequencySet::TryCompute(table, qid, node);
  if (!scanned.ok()) return scanned.status();
  const FrequencySet& freq = scanned.value();
  int64_t to_suppress = freq.TuplesBelowK(config.k);
  if (to_suppress > config.max_suppressed) {
    return Status::FailedPrecondition(StringPrintf(
        "generalization %s is not %lld-anonymous: %lld tuples lie in "
        "undersized groups but the suppression budget is %lld",
        node.ToString(&qid).c_str(), static_cast<long long>(config.k),
        static_cast<long long>(to_suppress),
        static_cast<long long>(config.max_suppressed)));
  }

  // The undersized groups, in canonical (ascending) order.
  std::vector<int32_t> suppressed;
  if (to_suppress > 0) {
    freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
      if (count < config.k) suppressed.insert(suppressed.end(), codes,
                                              codes + qid.size());
    });
  }
  return ReleaseFullDomainView(table, qid, node, suppressed);
}

RecodeResult ReleaseFullDomainView(const Table& table,
                                   const QuasiIdentifier& qid,
                                   const SubsetNode& node,
                                   const std::vector<int32_t>& suppressed) {
  const size_t n = qid.size();
  std::vector<const int32_t*> maps(n);
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    maps[i] = qid.hierarchy(i)
                  .BaseToLevelMap(static_cast<size_t>(node.levels[i]))
                  .data();
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }
  // A row is released unless its generalized codes are a suppressed key,
  // found by binary search over the sorted keys.
  const size_t num_keys = n == 0 ? 0 : suppressed.size() / n;
  std::vector<int32_t> gen(n);
  auto is_suppressed = [&](size_t r) {
    for (size_t i = 0; i < n; ++i) gen[i] = maps[i][cols[i][r]];
    size_t lo = 0, hi = num_keys;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const int32_t* key = suppressed.data() + mid * n;
      if (std::lexicographical_compare(key, key + n, gen.begin(), gen.end())) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < num_keys &&
           std::equal(gen.begin(), gen.end(), suppressed.data() + lo * n);
  };
  RecodeResult result;
  std::vector<size_t> rows;
  rows.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (num_keys > 0 && is_suppressed(r)) {
      ++result.suppressed_tuples;
    } else {
      rows.push_back(r);
    }
  }

  // QID columns generalized above level 0 carry their level's labels.
  std::vector<ViewLabels> replaced;
  for (size_t i = 0; i < n; ++i) {
    const size_t level = static_cast<size_t>(node.levels[i]);
    if (level == 0) continue;
    const ValueHierarchy& h = qid.hierarchy(i);
    ViewLabels labeled{qid.column(i), {}, std::vector<int32_t>(rows.size())};
    labeled.labels.reserve(h.DomainSize(level));
    for (const Value& label : h.level_values(level)) {
      labeled.labels.push_back(label.ToString());
    }
    for (size_t j = 0; j < rows.size(); ++j) {
      labeled.label_of_row[j] = maps[i][cols[i][rows[j]]];
    }
    replaced.push_back(std::move(labeled));
  }
  result.view = BuildView(table, rows, std::move(replaced));
  return result;
}

}  // namespace incognito
