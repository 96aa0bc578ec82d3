#include "models/mondrian.h"

#include <algorithm>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/obs.h"
#include "relation/view.h"

namespace incognito {

namespace {

/// A partition under refinement: a set of row indices.
struct Partition {
  std::vector<size_t> row_indices;
};

}  // namespace

PartialResult<MondrianResult> RunMondrian(const Table& table,
                                          const QuasiIdentifier& qid,
                                          const AnonymizationConfig& config,
                                          const RunContext& ctx) {
  INCOGNITO_SPAN("model.mondrian");
  INCOGNITO_COUNT("model.mondrian.runs");
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  if (static_cast<int64_t>(table.num_rows()) < config.k) {
    return Status::FailedPrecondition(StringPrintf(
        "table has %zu rows, fewer than k=%lld; no partitioning exists",
        table.num_rows(), static_cast<long long>(config.k)));
  }
  const size_t n = qid.size();

  // Rank encoding: per attribute, dictionary code → rank in value order.
  std::vector<std::vector<int32_t>> rank_of_code(n);
  std::vector<std::vector<int32_t>> code_of_rank(n);
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    const Dictionary& dict = table.dictionary(qid.column(i));
    code_of_rank[i] = dict.SortedCodes();
    rank_of_code[i].resize(dict.size());
    for (size_t rank = 0; rank < code_of_rank[i].size(); ++rank) {
      rank_of_code[i][static_cast<size_t>(code_of_rank[i][rank])] =
          static_cast<int32_t>(rank);
    }
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }
  auto rank_at = [&](size_t row, size_t attr) {
    return rank_of_code[attr][static_cast<size_t>(cols[attr][row])];
  };

  // Greedy strict multidimensional partitioning with median splits.
  std::vector<Partition> done;
  std::vector<Partition> work;
  {
    Partition all;
    all.row_indices.resize(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) all.row_indices[r] = r;
    work.push_back(std::move(all));
  }
  ExecutionGovernor local;  // unlimited: polled only
  ExecutionGovernor& governor = ctx.governor != nullptr ? *ctx.governor : local;
  Stopwatch timer;
  AlgorithmStats stats;
  Status trip;  // first governance trip (refinement stops, view released)
  std::vector<size_t> scratch;
  while (!work.empty()) {
    Status checkpoint = governor.Check();
    if (!checkpoint.ok()) {
      if (!IsResourceGovernance(checkpoint.code())) return checkpoint;
      // Graceful degradation: stop refining and release every pending
      // partition unsplit — each still holds >= k tuples, so the coarser
      // view remains k-anonymous.
      trip = std::move(checkpoint);
      for (Partition& p : work) done.push_back(std::move(p));
      work.clear();
      break;
    }
    ++stats.nodes_checked;
    Partition part = std::move(work.back());
    work.pop_back();

    // Choose the allowable split dimension with the widest normalized
    // range of ranks present in this partition.
    int best_attr = -1;
    double best_width = -1;
    for (size_t i = 0; i < n; ++i) {
      int32_t lo = INT32_MAX, hi = INT32_MIN;
      for (size_t r : part.row_indices) {
        int32_t rank = rank_at(r, i);
        lo = std::min(lo, rank);
        hi = std::max(hi, rank);
      }
      if (hi <= lo) continue;  // single value; cannot split
      double width = static_cast<double>(hi - lo) /
                     static_cast<double>(code_of_rank[i].size());
      if (width > best_width) {
        best_width = width;
        best_attr = static_cast<int>(i);
      }
    }

    bool split_done = false;
    if (best_attr >= 0) {
      // Median split on the chosen dimension, between distinct values so
      // the halves are well-defined intervals.
      scratch = part.row_indices;
      size_t attr = static_cast<size_t>(best_attr);
      std::sort(scratch.begin(), scratch.end(), [&](size_t a, size_t b) {
        return rank_at(a, attr) < rank_at(b, attr);
      });
      size_t median = scratch.size() / 2;
      // Move the split point to a boundary between distinct rank values.
      size_t split = median;
      while (split < scratch.size() &&
             rank_at(scratch[split], attr) ==
                 rank_at(scratch[median == 0 ? 0 : median - 1], attr)) {
        ++split;
      }
      // Try the boundary at/after the median; if a half would fall below
      // k, try the boundary before the median's value run instead.
      auto try_split = [&](size_t at) {
        if (at == 0 || at >= scratch.size()) return false;
        if (static_cast<int64_t>(at) < config.k) return false;
        if (static_cast<int64_t>(scratch.size() - at) < config.k) {
          return false;
        }
        Partition left, right;
        left.row_indices.assign(scratch.begin(),
                                scratch.begin() + static_cast<ptrdiff_t>(at));
        right.row_indices.assign(scratch.begin() + static_cast<ptrdiff_t>(at),
                                 scratch.end());
        work.push_back(std::move(left));
        work.push_back(std::move(right));
        return true;
      };
      split_done = try_split(split);
      if (!split_done) {
        // Boundary before the median value's run.
        size_t before = median;
        int32_t median_rank =
            rank_at(scratch[median == 0 ? 0 : median - 1], attr);
        while (before > 0 && rank_at(scratch[before - 1], attr) == median_rank) {
          --before;
        }
        split_done = try_split(before);
      }
    }
    if (!split_done) {
      done.push_back(std::move(part));
    }
  }

  // Materialize: each partition's attributes become rank-interval labels,
  // one label per (partition, attribute); rows keep partition order.
  MondrianResult result;
  result.num_partitions = done.size();
  std::vector<size_t> rows;
  rows.reserve(table.num_rows());
  std::vector<ViewLabels> replaced(n);
  for (size_t i = 0; i < n; ++i) {
    replaced[i].column = qid.column(i);
    replaced[i].labels.reserve(done.size());
    replaced[i].label_of_row.reserve(table.num_rows());
  }
  for (size_t p = 0; p < done.size(); ++p) {
    const std::vector<size_t>& part = done[p].row_indices;
    rows.insert(rows.end(), part.begin(), part.end());
    for (size_t i = 0; i < n; ++i) {
      int32_t lo = INT32_MAX, hi = INT32_MIN;
      for (size_t r : part) {
        int32_t rank = rank_at(r, i);
        lo = std::min(lo, rank);
        hi = std::max(hi, rank);
      }
      const Dictionary& dict = table.dictionary(qid.column(i));
      std::string label =
          dict.value(code_of_rank[i][static_cast<size_t>(lo)]).ToString();
      if (lo != hi) {
        label =
            "[" + label + "-" +
            dict.value(code_of_rank[i][static_cast<size_t>(hi)]).ToString() +
            "]";
      }
      replaced[i].labels.push_back(std::move(label));
      replaced[i].label_of_row.insert(replaced[i].label_of_row.end(),
                                      part.size(), static_cast<int32_t>(p));
    }
  }
  result.view = BuildView(table, rows, std::move(replaced));
  stats.total_seconds = timer.ElapsedSeconds();
  if (ctx.governor != nullptr) ctx.governor->ExportTrips(&stats);
  result.stats = stats;
  if (!trip.ok()) {
    return PartialResult<MondrianResult>::Partial(std::move(trip),
                                                  std::move(result));
  }
  return result;
}

}  // namespace incognito
