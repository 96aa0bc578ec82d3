#include "metrics/query_error.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "freq/frequency_set.h"

namespace incognito {

std::string QueryWorkloadReport::ToString() const {
  return StringPrintf(
      "queries=%zu mean_rel_err=%.4f median_rel_err=%.4f max_rel_err=%.4f",
      num_queries, mean_relative_error, median_relative_error,
      max_relative_error);
}

namespace {

/// One query: per attribute, either no constraint (empty membership) or a
/// membership bitmap over base codes.
struct Query {
  // per attribute: empty = unconstrained; else base-code membership.
  std::vector<std::vector<bool>> member;
};

}  // namespace

Result<QueryWorkloadReport> EvaluateQueryWorkload(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const AnonymizationConfig& config,
    const QueryWorkloadOptions& options) {
  const size_t n = qid.size();
  if (node.size() != n) {
    return Status::InvalidArgument(
        "node must generalize the full quasi-identifier");
  }
  if (options.num_queries == 0) {
    return Status::InvalidArgument("num_queries must be positive");
  }

  // Base-value coverage of each generalized value, per attribute:
  // covered[i][general_code] = base codes under it (sorted ascending).
  std::vector<std::vector<std::vector<int32_t>>> covered(n);
  for (size_t i = 0; i < n; ++i) {
    const ValueHierarchy& h = qid.hierarchy(i);
    size_t level = static_cast<size_t>(node.levels[i]);
    covered[i].resize(h.DomainSize(level));
    const std::vector<int32_t>& map = h.BaseToLevelMap(level);
    for (size_t base = 0; base < map.size(); ++base) {
      covered[i][static_cast<size_t>(map[base])].push_back(
          static_cast<int32_t>(base));
    }
  }

  // The release's equivalence classes (with suppression applied).
  Result<FrequencySet> scanned = FrequencySet::TryCompute(table, qid, node);
  if (!scanned.ok()) return scanned.status();
  const FrequencySet& freq = scanned.value();
  std::vector<std::vector<int32_t>> class_codes;
  std::vector<int64_t> class_counts;
  freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
    if (count < config.k) return;  // suppressed
    class_codes.emplace_back(codes, codes + n);
    class_counts.push_back(count);
  });

  // Domain rank order per attribute (queries are ranges in value order).
  std::vector<std::vector<int32_t>> sorted_codes(n);
  for (size_t i = 0; i < n; ++i) {
    sorted_codes[i] = table.dictionary(qid.column(i)).SortedCodes();
  }

  // Generate the workload.
  Rng rng(options.seed);
  const size_t attrs_per_query = std::min(options.attributes_per_query, n);
  std::vector<Query> workload(options.num_queries);
  for (Query& query : workload) {
    query.member.resize(n);
    // Choose attributes without replacement.
    std::vector<size_t> attrs(n);
    for (size_t i = 0; i < n; ++i) attrs[i] = i;
    for (size_t i = 0; i < attrs_per_query; ++i) {
      size_t j = i + rng.Uniform(n - i);
      std::swap(attrs[i], attrs[j]);
    }
    for (size_t a = 0; a < attrs_per_query; ++a) {
      size_t i = attrs[a];
      size_t domain = sorted_codes[i].size();
      size_t width = std::max<size_t>(
          1, static_cast<size_t>(options.selectivity *
                                 static_cast<double>(domain)));
      width = std::min(width, domain);
      size_t start = rng.Uniform(domain - width + 1);
      query.member[i].assign(domain, false);
      for (size_t r = start; r < start + width; ++r) {
        query.member[i][static_cast<size_t>(sorted_codes[i][r])] = true;
      }
    }
  }

  // True answers: one scan of the base codes per query batch.
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }
  std::vector<int64_t> truth(workload.size(), 0);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t q = 0; q < workload.size(); ++q) {
      bool match = true;
      for (size_t i = 0; i < n && match; ++i) {
        const std::vector<bool>& member = workload[q].member[i];
        if (!member.empty() && !member[static_cast<size_t>(cols[i][r])]) {
          match = false;
        }
      }
      if (match) ++truth[q];
    }
  }

  // Estimates from the release under uniform spread.
  std::vector<double> errors;
  errors.reserve(workload.size());
  double sum = 0, max_err = 0;
  for (size_t q = 0; q < workload.size(); ++q) {
    double estimate = 0;
    for (size_t g = 0; g < class_codes.size(); ++g) {
      double fraction = 1;
      for (size_t i = 0; i < n && fraction > 0; ++i) {
        const std::vector<bool>& member = workload[q].member[i];
        if (member.empty()) continue;
        const std::vector<int32_t>& bases =
            covered[i][static_cast<size_t>(class_codes[g][i])];
        size_t hit = 0;
        for (int32_t b : bases) {
          if (member[static_cast<size_t>(b)]) ++hit;
        }
        fraction *= static_cast<double>(hit) /
                    static_cast<double>(bases.size());
      }
      estimate += fraction * static_cast<double>(class_counts[g]);
    }
    double err = std::abs(estimate - static_cast<double>(truth[q])) /
                 std::max<double>(1.0, static_cast<double>(truth[q]));
    errors.push_back(err);
    sum += err;
    max_err = std::max(max_err, err);
  }
  std::sort(errors.begin(), errors.end());

  QueryWorkloadReport report;
  report.num_queries = workload.size();
  report.mean_relative_error = sum / static_cast<double>(errors.size());
  report.median_relative_error = errors[errors.size() / 2];
  report.max_relative_error = max_err;
  return report;
}

}  // namespace incognito
