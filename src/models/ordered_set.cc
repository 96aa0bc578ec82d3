#include "models/ordered_set.h"

#include <algorithm>
#include <unordered_map>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/obs.h"
#include "relation/view.h"

namespace incognito {

namespace {

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

/// Partition state of one attribute: the domain in sorted order, and for
/// each rank the id of the interval containing it. Intervals are
/// contiguous rank ranges.
struct AttributePartition {
  std::vector<int32_t> sorted_codes;     // rank -> dictionary code
  std::vector<int32_t> rank_of_code;     // dictionary code -> rank
  std::vector<int32_t> interval_of_rank; // rank -> interval id (ascending)
  size_t num_intervals = 0;

  void InitSingletons(const Dictionary& dict) {
    sorted_codes = dict.SortedCodes();
    rank_of_code.resize(sorted_codes.size());
    for (size_t rank = 0; rank < sorted_codes.size(); ++rank) {
      rank_of_code[static_cast<size_t>(sorted_codes[rank])] =
          static_cast<int32_t>(rank);
    }
    interval_of_rank.resize(sorted_codes.size());
    for (size_t rank = 0; rank < sorted_codes.size(); ++rank) {
      interval_of_rank[rank] = static_cast<int32_t>(rank);
    }
    num_intervals = sorted_codes.size();
  }

  /// Merges adjacent interval pairs (0&1, 2&3, ...), halving the count.
  void Halve() {
    for (int32_t& id : interval_of_rank) id /= 2;
    num_intervals = (num_intervals + 1) / 2;
  }

  /// "[lo-hi]" label of an interval (or the single value's label).
  std::string Label(const Dictionary& dict, int32_t interval) const {
    int32_t lo_code = -1, hi_code = -1;
    for (size_t rank = 0; rank < interval_of_rank.size(); ++rank) {
      if (interval_of_rank[rank] == interval) {
        if (lo_code < 0) lo_code = sorted_codes[rank];
        hi_code = sorted_codes[rank];
      }
    }
    if (lo_code == hi_code) return dict.value(lo_code).ToString();
    return "[" + dict.value(lo_code).ToString() + "-" +
           dict.value(hi_code).ToString() + "]";
  }
};

/// Shared implementation; `governor` == nullptr is the ungoverned path.
PartialResult<OrderedSetResult> RunOrderedSetImpl(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, ExecutionGovernor* governor) {
  INCOGNITO_SPAN("model.ordered_set");
  INCOGNITO_COUNT("model.ordered_set.runs");
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  const size_t n = qid.size();
  const size_t rows = table.num_rows();
  const int64_t budget = std::max(config.k, config.max_suppressed);

  std::vector<AttributePartition> parts(n);
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    parts[i].InitSingletons(table.dictionary(qid.column(i)));
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }

  Stopwatch timer;
  AlgorithmStats stats;
  // Per round the grouping pass materializes one interval key per row plus
  // the group hash map — the frequency-set analogue this model charges.
  const int64_t round_bytes =
      static_cast<int64_t>(rows) *
      (static_cast<int64_t>(n) * static_cast<int64_t>(sizeof(int32_t)) + 48);

  // Wraps a budget trip into a partial result with an EMPTY view: the
  // intermediate partitioning is not yet k-anonymous.
  auto stop_early = [&](Status trip) -> PartialResult<OrderedSetResult> {
    OrderedSetResult partial;
    stats.total_seconds = timer.ElapsedSeconds();
    if (governor != nullptr) governor->ExportTrips(&stats);
    partial.stats = stats;
    if (IsResourceGovernance(trip.code())) {
      return PartialResult<OrderedSetResult>::Partial(std::move(trip),
                                                      std::move(partial));
    }
    return trip;
  };

  std::vector<bool> violating(rows, false);
  while (true) {
    if (governor != nullptr) {
      Status checkpoint = governor->Check();
      if (!checkpoint.ok()) return stop_early(std::move(checkpoint));
      Status charged = governor->ChargeMemory(round_bytes);
      if (!charged.ok()) return stop_early(std::move(charged));
    }
    ++stats.nodes_checked;
    ++stats.table_scans;
    std::unordered_map<std::vector<int32_t>, int64_t, VecHash> groups;
    std::vector<std::vector<int32_t>> keys(rows, std::vector<int32_t>(n));
    for (size_t r = 0; r < rows; ++r) {
      for (size_t i = 0; i < n; ++i) {
        int32_t rank =
            parts[i].rank_of_code[static_cast<size_t>(cols[i][r])];
        keys[r][i] = parts[i].interval_of_rank[static_cast<size_t>(rank)];
      }
      ++groups[keys[r]];
    }
    int64_t below = 0;
    for (size_t r = 0; r < rows; ++r) {
      violating[r] = groups[keys[r]] < config.k;
      if (violating[r]) ++below;
    }
    if (governor != nullptr) governor->ReleaseMemory(round_bytes);
    if (below <= budget) break;

    // Halve the partition of the attribute with the most intervals.
    size_t widest = 0;
    for (size_t i = 1; i < n; ++i) {
      if (parts[i].num_intervals > parts[widest].num_intervals) widest = i;
    }
    if (parts[widest].num_intervals <= 1) break;  // fully generalized
    parts[widest].Halve();
  }

  // Materialize the view, with one label per interval of each attribute.
  OrderedSetResult result;
  std::vector<size_t> released;
  for (size_t r = 0; r < rows; ++r) {
    if (violating[r]) {
      ++result.suppressed_tuples;
    } else {
      released.push_back(r);
    }
  }
  std::vector<ViewLabels> replaced(n);
  for (size_t i = 0; i < n; ++i) {
    const Dictionary& dict = table.dictionary(qid.column(i));
    replaced[i].column = qid.column(i);
    for (size_t t = 0; t < parts[i].num_intervals; ++t) {
      replaced[i].labels.push_back(
          parts[i].Label(dict, static_cast<int32_t>(t)));
    }
    result.intervals_per_attribute.push_back(parts[i].num_intervals);
    for (size_t r : released) {
      int32_t rank = parts[i].rank_of_code[static_cast<size_t>(cols[i][r])];
      replaced[i].label_of_row.push_back(
          parts[i].interval_of_rank[static_cast<size_t>(rank)]);
    }
  }
  result.view = BuildView(table, released, std::move(replaced));
  stats.total_seconds = timer.ElapsedSeconds();
  if (governor != nullptr) governor->ExportTrips(&stats);
  result.stats = stats;
  return result;
}

}  // namespace

PartialResult<OrderedSetResult> RunOrderedSetPartition(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const RunContext& ctx) {
  return RunOrderedSetImpl(table, qid, config, ctx.governor);
}

Result<OptimalUnivariateResult> OptimalUnivariatePartition(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() != 1) {
    return Status::InvalidArgument(
        "OptimalUnivariatePartition requires a single-attribute "
        "quasi-identifier");
  }
  const size_t col = qid.column(0);
  const Dictionary& dict = table.dictionary(col);
  const size_t m = dict.size();
  if (m > 5000) {
    return Status::NotSupported(StringPrintf(
        "domain has %zu distinct values; the O(m^2) exact DP is capped at "
        "5000 — use RunOrderedSetPartition instead",
        m));
  }
  if (static_cast<int64_t>(table.num_rows()) < config.k) {
    return Status::FailedPrecondition(
        "table has fewer rows than k; no k-anonymous partition exists");
  }

  // Histogram over the sorted domain.
  std::vector<int32_t> sorted = dict.SortedCodes();
  std::vector<int32_t> rank_of_code(m);
  for (size_t rank = 0; rank < m; ++rank) {
    rank_of_code[static_cast<size_t>(sorted[rank])] =
        static_cast<int32_t>(rank);
  }
  std::vector<int64_t> hist(m, 0);
  for (int32_t code : table.ColumnCodes(col)) {
    ++hist[static_cast<size_t>(rank_of_code[static_cast<size_t>(code)])];
  }
  std::vector<int64_t> prefix(m + 1, 0);
  for (size_t i = 0; i < m; ++i) prefix[i + 1] = prefix[i] + hist[i];

  // dp[i]: minimal Σ size² partitioning ranks [0, i) into intervals of
  // count >= k (infeasible = infinity). cut[i]: the j achieving it.
  constexpr double kInf = 1e300;
  std::vector<double> dp(m + 1, kInf);
  std::vector<size_t> cut(m + 1, 0);
  dp[0] = 0;
  for (size_t i = 1; i <= m; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (dp[j] >= kInf) continue;
      int64_t size = prefix[i] - prefix[j];
      if (size < config.k) break;  // shrinking j further only shrinks size
      double cost = dp[j] + static_cast<double>(size) * size;
      if (cost < dp[i]) {
        dp[i] = cost;
        cut[i] = j;
      }
    }
  }
  if (dp[m] >= kInf) {
    // Cannot happen when total >= k (the single full interval qualifies),
    // but guard against empty-value pathologies.
    return Status::Internal("no feasible partition found");
  }

  // Recover the interval boundaries (rank ranges).
  std::vector<std::pair<size_t, size_t>> intervals;  // [begin, end) ranks
  for (size_t i = m; i > 0; i = cut[i]) {
    intervals.emplace_back(cut[i], i);
  }
  std::reverse(intervals.begin(), intervals.end());

  // Interval id and label per rank.
  std::vector<int32_t> interval_of_rank(m);
  std::vector<std::string> labels(intervals.size());
  OptimalUnivariateResult result;
  for (size_t t = 0; t < intervals.size(); ++t) {
    auto [begin, end] = intervals[t];
    for (size_t rank = begin; rank < end; ++rank) {
      interval_of_rank[rank] = static_cast<int32_t>(t);
    }
    const Value& lo = dict.value(sorted[begin]);
    const Value& hi = dict.value(sorted[end - 1]);
    labels[t] = begin + 1 == end
                    ? lo.ToString()
                    : "[" + lo.ToString() + "-" + hi.ToString() + "]";
    result.interval_sizes.push_back(prefix[end] - prefix[begin]);
  }
  result.discernibility = dp[m];

  // Materialize the view.
  std::vector<size_t> rows(table.num_rows());
  std::vector<ViewLabels> replaced(1);
  replaced[0].column = col;
  replaced[0].labels = std::move(labels);
  for (size_t r = 0; r < rows.size(); ++r) {
    rows[r] = r;
    int32_t rank = rank_of_code[static_cast<size_t>(table.GetCode(r, col))];
    replaced[0].label_of_row.push_back(
        interval_of_rank[static_cast<size_t>(rank)]);
  }
  result.view = BuildView(table, rows, std::move(replaced));
  return result;
}

}  // namespace incognito
