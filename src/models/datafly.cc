#include "models/datafly.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/stopwatch.h"
#include "core/recoder.h"
#include "freq/frequency_set.h"
#include "obs/obs.h"

namespace incognito {

PartialResult<DataflyResult> RunDatafly(const Table& table,
                                        const QuasiIdentifier& qid,
                                        const AnonymizationConfig& config,
                                        const RunContext& ctx) {
  INCOGNITO_SPAN("model.datafly");
  INCOGNITO_COUNT("model.datafly.runs");
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }

  ExecutionGovernor local;  // unlimited: accounting only
  ExecutionGovernor& governor = ctx.governor != nullptr ? *ctx.governor : local;
  Stopwatch timer;
  DataflyResult result;
  const size_t n = qid.size();
  SubsetNode node = SubsetNode::Full(std::vector<int32_t>(n, 0));

  // Datafly's stopping rule: keep generalizing while MORE than this many
  // tuples violate k-anonymity; the remainder is suppressed.
  const int64_t budget = std::max(config.k, config.max_suppressed);

  // Stamps the run's time and, for a caller's governor, its trips. A budget
  // trip reports the greedy walk's current node, but the view stays empty —
  // the intermediate state is not k-anonymous and releasing it would
  // violate the privacy contract.
  auto finalize = [&](Status status) -> PartialResult<DataflyResult> {
    result.node = node;
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (ctx.governor != nullptr) ctx.governor->ExportTrips(&result.stats);
    if (status.ok()) return std::move(result);
    if (IsResourceGovernance(status.code())) {
      return PartialResult<DataflyResult>::Partial(std::move(status),
                                                   std::move(result));
    }
    return status;
  };

  while (true) {
    Status checkpoint = governor.Check();
    if (!checkpoint.ok()) return finalize(std::move(checkpoint));
    FrequencySet freq = std::move(
        FrequencySet::ComputeBatch(table, qid, {node}, nullptr, &governor)
            .front());
    MemoryCharge charge(governor);
    Status charged = charge.Add(static_cast<int64_t>(freq.MemoryBytes()));
    if (!charged.ok()) return finalize(std::move(charged));
    ++result.stats.table_scans;
    ++result.stats.nodes_checked;
    result.stats.freq_groups_built += static_cast<int64_t>(freq.NumGroups());
    if (freq.TuplesBelowK(config.k) <= budget) break;

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
    if (best < 0) break;  // everything at the top; suppression must finish it
    ++node.levels[static_cast<size_t>(best)];
  }

  AnonymizationConfig recode_config = config;
  recode_config.max_suppressed = budget;
  Result<RecodeResult> recoded =
      ApplyFullDomainGeneralization(table, qid, node, recode_config);
  if (!recoded.ok()) return recoded.status();

  result.view = std::move(recoded.value().view);
  result.suppressed_tuples = recoded.value().suppressed_tuples;
  return finalize(Status::OK());
}

}  // namespace incognito
