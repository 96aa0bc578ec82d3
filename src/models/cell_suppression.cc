#include "models/cell_suppression.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/stopwatch.h"
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

constexpr int32_t kSuppressed = -1;

/// Shared implementation; `governor` == nullptr is the ungoverned path.
PartialResult<CellSuppressionResult> RunCellSuppressionImpl(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, ExecutionGovernor* governor) {
  INCOGNITO_SPAN("model.cell_suppression");
  INCOGNITO_COUNT("model.cell_suppression.runs");
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  const size_t n = qid.size();
  const size_t rows = table.num_rows();

  // cell[r][i]: the current (local) recoding of tuple r's attribute i —
  // its dictionary code, or kSuppressed.
  std::vector<std::vector<int32_t>> cell(rows, std::vector<int32_t>(n));
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t i = 0; i < n; ++i) cell[r][i] = cols[i][r];
  }

  CellSuppressionResult result;
  Stopwatch timer;
  // Per round the grouping pass materializes one hash-map entry per group
  // — the frequency-set analogue this model charges.
  const int64_t round_bytes =
      static_cast<int64_t>(rows) *
      (static_cast<int64_t>(n) * static_cast<int64_t>(sizeof(int32_t)) + 48);

  // Wraps a budget trip into a partial result with an EMPTY view: the
  // intermediate recoding is not yet k-anonymous.
  auto stop_early = [&](Status trip) -> PartialResult<CellSuppressionResult> {
    CellSuppressionResult partial;
    partial.stats = result.stats;
    partial.stats.total_seconds = timer.ElapsedSeconds();
    if (governor != nullptr) governor->ExportTrips(&partial.stats);
    if (IsResourceGovernance(trip.code())) {
      return PartialResult<CellSuppressionResult>::Partial(
          std::move(trip), std::move(partial));
    }
    return trip;
  };

  std::vector<bool> violating(rows, false);
  std::vector<bool> removed(rows, false);
  while (true) {
    if (governor != nullptr) {
      Status checkpoint = governor->Check();
      if (!checkpoint.ok()) return stop_early(std::move(checkpoint));
      Status charged = governor->ChargeMemory(round_bytes);
      if (!charged.ok()) return stop_early(std::move(charged));
    }
    ++result.stats.nodes_checked;
    ++result.stats.table_scans;
    std::unordered_map<std::vector<int32_t>, int64_t, VecHash> groups;
    for (size_t r = 0; r < rows; ++r) {
      if (!removed[r]) ++groups[cell[r]];
    }
    int64_t below = 0;
    for (size_t r = 0; r < rows; ++r) {
      violating[r] = !removed[r] && groups[cell[r]] < config.k;
      if (violating[r]) ++below;
    }
    if (below == 0) {
      if (governor != nullptr) governor->ReleaseMemory(round_bytes);
      break;
    }

    // Pick the attribute with the most distinct (unsuppressed) values
    // among the violating tuples; suppressing it merges the most groups.
    std::vector<std::unordered_set<int32_t>> distinct(n);
    bool any_unsuppressed = false;
    for (size_t r = 0; r < rows; ++r) {
      if (!violating[r]) continue;
      for (size_t i = 0; i < n; ++i) {
        if (cell[r][i] != kSuppressed) {
          distinct[i].insert(cell[r][i]);
          any_unsuppressed = true;
        }
      }
    }
    if (!any_unsuppressed) {
      // Fully suppressed tuples still in an undersized group: remove them
      // (fewer than k such tuples remain in total).
      for (size_t r = 0; r < rows; ++r) {
        if (violating[r]) {
          removed[r] = true;
          ++result.tuples_suppressed;
        }
      }
      if (governor != nullptr) governor->ReleaseMemory(round_bytes);
      break;
    }
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (distinct[i].size() > distinct[best].size()) best = i;
    }
    for (size_t r = 0; r < rows; ++r) {
      if (violating[r] && cell[r][best] != kSuppressed) {
        cell[r][best] = kSuppressed;
        ++result.cells_suppressed;
      }
    }
    if (governor != nullptr) governor->ReleaseMemory(round_bytes);
  }

  // Materialize the view: a cell keeps its value's text, or reads "*"
  // (the label after the dictionary's values).
  std::vector<size_t> released;
  for (size_t r = 0; r < rows; ++r) {
    if (!removed[r]) released.push_back(r);
  }
  std::vector<ViewLabels> replaced(n);
  for (size_t i = 0; i < n; ++i) {
    const Dictionary& dict = table.dictionary(qid.column(i));
    replaced[i].column = qid.column(i);
    for (size_t code = 0; code < dict.size(); ++code) {
      replaced[i].labels.push_back(
          dict.value(static_cast<int32_t>(code)).ToString());
    }
    replaced[i].labels.push_back("*");
    const int32_t star = static_cast<int32_t>(dict.size());
    for (size_t r : released) {
      replaced[i].label_of_row.push_back(
          cell[r][i] == kSuppressed ? star : cell[r][i]);
    }
  }
  result.view = BuildView(table, released, std::move(replaced));
  result.stats.total_seconds = timer.ElapsedSeconds();
  if (governor != nullptr) governor->ExportTrips(&result.stats);
  return result;
}

}  // namespace

PartialResult<CellSuppressionResult> RunCellSuppression(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const RunContext& ctx) {
  return RunCellSuppressionImpl(table, qid, config, ctx.governor);
}

}  // namespace incognito
