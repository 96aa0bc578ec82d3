#include "core/checker.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/worker_pool.h"
#include "obs/obs.h"

namespace incognito {

namespace {

/// One-scan frequency-set computation, serial or fanned out across a
/// transient pool (bit-identical either way; see docs/PARALLELISM.md).
FrequencySet CheckScan(const Table& table, const QuasiIdentifier& qid,
                       const SubsetNode& node, int num_threads,
                       ExecutionGovernor* governor) {
  WorkerPool pool(num_threads);
  return std::move(
      FrequencySet::ComputeBatch(table, qid, {node}, &pool, governor)
          .front());
}

}  // namespace

void AlgorithmStats::MergeCounters(const AlgorithmStats& other) {
  nodes_checked += other.nodes_checked;
  nodes_marked += other.nodes_marked;
  table_scans += other.table_scans;
  rollups += other.rollups;
  freq_groups_built += other.freq_groups_built;
  candidate_nodes += other.candidate_nodes;
  cube_build_seconds += other.cube_build_seconds;
  governor_checks += other.governor_checks;
  deadline_trips += other.deadline_trips;
  memory_trips += other.memory_trips;
  cancel_trips += other.cancel_trips;
  parallel_workers = std::max(parallel_workers, other.parallel_workers);
  tasks_scheduled += other.tasks_scheduled;
  critical_path_seconds += other.critical_path_seconds;
  scheduler_idle_seconds += other.scheduler_idle_seconds;
  checkpoint_writes += other.checkpoint_writes;
  checkpoint_bytes += other.checkpoint_bytes;
  checkpoint_write_failures += other.checkpoint_write_failures;
  restored_iterations += other.restored_iterations;
  restored_subsets += other.restored_subsets;
  batched_scan_nodes += other.batched_scan_nodes;
  batch_scan_seconds += other.batch_scan_seconds;
}

std::string AlgorithmStats::ToString() const {
  return StringPrintf(
      "checked=%lld marked=%lld scans=%lld rollups=%lld groups=%lld "
      "candidates=%lld cube=%.3fs total=%.3fs gov_checks=%lld "
      "dl_trips=%lld mem_trips=%lld cancel_trips=%lld workers=%lld "
      "tasks=%lld critical_path=%.3fs idle=%.3fs ckpt_writes=%lld "
      "ckpt_bytes=%lld ckpt_failures=%lld restored_iters=%lld "
      "restored_subsets=%lld batched=%lld batch_scan=%.3fs",
      static_cast<long long>(nodes_checked),
      static_cast<long long>(nodes_marked),
      static_cast<long long>(table_scans), static_cast<long long>(rollups),
      static_cast<long long>(freq_groups_built),
      static_cast<long long>(candidate_nodes), cube_build_seconds,
      total_seconds, static_cast<long long>(governor_checks),
      static_cast<long long>(deadline_trips),
      static_cast<long long>(memory_trips),
      static_cast<long long>(cancel_trips),
      static_cast<long long>(parallel_workers),
      static_cast<long long>(tasks_scheduled), critical_path_seconds,
      scheduler_idle_seconds, static_cast<long long>(checkpoint_writes),
      static_cast<long long>(checkpoint_bytes),
      static_cast<long long>(checkpoint_write_failures),
      static_cast<long long>(restored_iterations),
      static_cast<long long>(restored_subsets),
      static_cast<long long>(batched_scan_nodes), batch_scan_seconds);
}

bool IsKAnonymous(const Table& table, const QuasiIdentifier& qid,
                  const SubsetNode& node, const AnonymizationConfig& config,
                  AlgorithmStats* stats, int num_threads) {
  INCOGNITO_SPAN("checker.is_k_anonymous");
  INCOGNITO_COUNT("checker.direct_checks");
  Stopwatch timer;
  FrequencySet fs = CheckScan(table, qid, node, num_threads, nullptr);
  bool anonymous = fs.IsKAnonymous(config.k, config.max_suppressed);
  if (stats != nullptr) {
    ++stats->nodes_checked;
    ++stats->table_scans;
    stats->freq_groups_built += static_cast<int64_t>(fs.NumGroups());
    stats->total_seconds += timer.ElapsedSeconds();
  }
  return anonymous;
}

Result<bool> IsKAnonymous(const Table& table, const QuasiIdentifier& qid,
                          const SubsetNode& node,
                          const AnonymizationConfig& config,
                          const RunContext& ctx, AlgorithmStats* stats) {
  int num_threads = ctx.num_threads > 0 ? ctx.num_threads : 1;
  if (ctx.governor == nullptr) {
    return IsKAnonymous(table, qid, node, config, stats, num_threads);
  }
  ExecutionGovernor& governor = *ctx.governor;
  INCOGNITO_RETURN_IF_ERROR(governor.Check());
  INCOGNITO_HIST_TIMER("checker.check_seconds");
  Stopwatch timer;
  FrequencySet fs = CheckScan(table, qid, node, num_threads, &governor);
  Status charge = governor.ChargeMemory(
      static_cast<int64_t>(fs.MemoryBytes()));
  if (!charge.ok()) {
    if (stats != nullptr) governor.ExportTrips(stats);
    return charge;
  }
  bool anonymous = fs.IsKAnonymous(config.k, config.max_suppressed);
  governor.ReleaseMemory(static_cast<int64_t>(fs.MemoryBytes()));
  if (stats != nullptr) {
    ++stats->nodes_checked;
    ++stats->table_scans;
    stats->freq_groups_built += static_cast<int64_t>(fs.NumGroups());
    stats->total_seconds += timer.ElapsedSeconds();
    governor.ExportTrips(stats);
  }
  return anonymous;
}

}  // namespace incognito
