#include "models/datafly.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/stopwatch.h"
#include "core/recoder.h"
#include "freq/frequency_set.h"
#include "obs/obs.h"

namespace incognito {

namespace {

/// Shared implementation; `governor` == nullptr is the ungoverned path.
PartialResult<DataflyResult> RunDataflyImpl(const Table& table,
                                            const QuasiIdentifier& qid,
                                            const AnonymizationConfig& config,
                                            ExecutionGovernor* governor) {
  INCOGNITO_SPAN("model.datafly");
  INCOGNITO_COUNT("model.datafly.runs");
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }

  Stopwatch timer;
  DataflyResult result;
  const size_t n = qid.size();
  SubsetNode node = SubsetNode::Full(std::vector<int32_t>(n, 0));

  // Datafly's stopping rule: keep generalizing while MORE than this many
  // tuples violate k-anonymity; the remainder is suppressed.
  const int64_t budget = std::max(config.k, config.max_suppressed);

  // Wraps a budget trip into a partial result: the greedy walk's current
  // node is reported, but the view stays empty — the intermediate state is
  // not k-anonymous and releasing it would violate the privacy contract.
  auto stop_early = [&](Status trip) -> PartialResult<DataflyResult> {
    result.node = node;
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (governor != nullptr) governor->ExportTrips(&result.stats);
    if (IsResourceGovernance(trip.code())) {
      return PartialResult<DataflyResult>::Partial(std::move(trip),
                                                   std::move(result));
    }
    return trip;
  };

  while (true) {
    if (governor != nullptr) {
      Status checkpoint = governor->Check();
      if (!checkpoint.ok()) return stop_early(std::move(checkpoint));
    }
    FrequencySet freq = std::move(
        FrequencySet::ComputeBatch(table, qid, {node}, nullptr, governor)
            .front());
    int64_t freq_bytes = static_cast<int64_t>(freq.MemoryBytes());
    if (governor != nullptr) {
      Status charged = governor->ChargeMemory(freq_bytes);
      if (!charged.ok()) return stop_early(std::move(charged));
    }
    ++result.stats.table_scans;
    ++result.stats.nodes_checked;
    result.stats.freq_groups_built += static_cast<int64_t>(freq.NumGroups());
    if (freq.TuplesBelowK(config.k) <= budget) {
      if (governor != nullptr) governor->ReleaseMemory(freq_bytes);
      break;
    }

    // Count distinct generalized values per attribute in the current view.
    std::vector<std::unordered_set<int32_t>> distinct(n);
    freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
      (void)count;
      for (size_t i = 0; i < n; ++i) distinct[i].insert(codes[i]);
    });
    // Generalize the attribute with the most distinct values that can
    // still be generalized.
    int best = -1;
    size_t best_distinct = 0;
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<size_t>(node.levels[i]) >= qid.hierarchy(i).height()) {
        continue;
      }
      if (best < 0 || distinct[i].size() > best_distinct) {
        best = static_cast<int>(i);
        best_distinct = distinct[i].size();
      }
    }
    if (governor != nullptr) governor->ReleaseMemory(freq_bytes);
    if (best < 0) break;  // everything at the top; suppression must finish it
    ++node.levels[static_cast<size_t>(best)];
  }

  AnonymizationConfig recode_config = config;
  recode_config.max_suppressed = budget;
  Result<RecodeResult> recoded =
      ApplyFullDomainGeneralization(table, qid, node, recode_config);
  if (!recoded.ok()) return recoded.status();

  result.node = std::move(node);
  result.view = std::move(recoded.value().view);
  result.suppressed_tuples = recoded.value().suppressed_tuples;
  result.stats.total_seconds = timer.ElapsedSeconds();
  if (governor != nullptr) governor->ExportTrips(&result.stats);
  return result;
}

}  // namespace

PartialResult<DataflyResult> RunDatafly(const Table& table,
                                        const QuasiIdentifier& qid,
                                        const AnonymizationConfig& config,
                                        const RunContext& ctx) {
  return RunDataflyImpl(table, qid, config, ctx.governor);
}

}  // namespace incognito
