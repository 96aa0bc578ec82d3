#include "core/parallel.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/checkpoint_resume.h"
#include "core/worker_pool.h"
#include "freq/cube.h"
#include "freq/frequency_set.h"
#include "lattice/candidate_gen.h"
#include "lattice/graph_tables.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"

namespace incognito {

namespace {

int Popcount(uint64_t mask) { return __builtin_popcountll(mask); }

/// The lowest set bit of a non-zero mask.
uint64_t LowestBit(uint64_t mask) { return mask & (~mask + 1); }

/// What every walk of one run shares: the problem, the Cube Incognito cube
/// (null for the other variants), the governor every worker charges and
/// polls (never null — a private unlimited one when the run is
/// ungoverned), one private stats object per worker, and for ℓ-diversity
/// the key QID (null for k-anonymity) and ℓ.
struct SearchRun {
  const Table& table;
  const QuasiIdentifier& qid;
  const AnonymizationConfig& config;
  const IncognitoOptions& options;
  const ZeroGenCube* cube;
  ExecutionGovernor* governor;
  std::vector<AlgorithmStats>& worker_stats;
  const QuasiIdentifier* key_qid;
  int64_t l;
};

/// The Incognito lattice walk over one candidate graph: the modified
/// breadth-first search of paper §3.1.1, one height level at a time
/// (docs/PARALLELISM.md "One lattice walk"). Phase A evaluates every node
/// of a level; Phase B merges the outcomes in ascending node id. Every
/// effect of processing a node — marks, enqueued generalizations, retained
/// rollup sources — lands only on strictly greater heights, so the walk
/// visits exactly the nodes the paper's (height, id)-ordered queue visits,
/// with the same outcomes and counters.
///
/// Given a pool, Phase A and the shared scans fan out across its workers:
/// the apex graph, which has the pool to itself. Without one, the walk
/// stays inline on worker `worker`: a subset task, whose siblings keep the
/// rest of the pool busy. Either way every byte is charged to the run's one
/// governor.
///
/// Under ℓ-diversity every frequency set is built over the key QID, for
/// the candidate node with the sensitive dimension appended (SetNode).
class LatticeWalk {
 public:
  LatticeWalk(const SearchRun& run, WorkerPool* pool, int worker)
      : run_(run),
        options_(run.options),
        set_qid_(run.key_qid != nullptr ? *run.key_qid : run.qid),
        governor_(*run.governor),
        pool_(pool),
        worker_(worker),
        stats_(run.worker_stats[static_cast<size_t>(worker)]) {}

  /// failed[id] == true iff T was checked and found NOT to satisfy the
  /// criterion w.r.t. node id; every other node satisfies it (checked,
  /// marked, or implied) — exactly the deletion set for S_i. A budget trip
  /// aborts the walk and returns the trip status, with every charged byte
  /// released.
  Result<std::vector<bool>> Run(const CandidateGraph& graph) {
    INCOGNITO_SPAN("incognito.graph_search");
    const size_t n = graph.num_nodes();
    std::vector<bool> failed(n, false);
    std::vector<bool> marked(n, false);
    std::vector<char> enqueued(n, 0);

    // Frequency sets of failed nodes, kept for their generalizations to
    // roll up from. Written only in Phase B; Phase A only reads it.
    std::unordered_map<int64_t, RetainedSet> stored;
    std::unordered_map<int64_t, int64_t> pending_uses;
    // Super-roots: each multi-root family's super-root set, by the dims of
    // its SetNode.
    std::map<std::vector<int32_t>, RetainedSet> families;
    // Sets pre-built by the shared scans, by node id. A worker that takes
    // one zeroes its bytes; Phase B erases it. Front entries for higher
    // levels persist across levels.
    std::unordered_map<int64_t, RetainedSet> batch;

    auto release_parents = [&](int64_t id) {
      for (int64_t spec : graph.InEdges(id)) {
        auto it = pending_uses.find(spec);
        if (it != pending_uses.end() && --it->second == 0) {
          auto sit = stored.find(spec);
          if (sit != stored.end()) {
            governor_.ReleaseMemory(sit->second.bytes);
            stored.erase(sit);
          }
          pending_uses.erase(it);
        }
      }
    };
    auto release_all = [&]() {
      for (const auto& [id, set] : stored) {
        (void)id;
        governor_.ReleaseMemory(set.bytes);
      }
      for (const auto& [dims, set] : families) {
        (void)dims;
        governor_.ReleaseMemory(set.bytes);
      }
      for (const auto& [id, set] : batch) {
        (void)id;
        governor_.ReleaseMemory(set.bytes);  // zero once taken
      }
    };

    // Roots have no in-edges, so none is ever marked and every one is
    // processed: building each multi-root family's super-root set (the
    // componentwise minimum of its roots — their greatest common
    // specialization) up front performs exactly the scans a lazy build
    // would, just earlier.
    std::vector<int64_t> roots = graph.Roots();
    if (options_.variant == IncognitoVariant::kSuperRoots) {
      std::map<std::vector<int32_t>, std::vector<int64_t>> by_dims;
      for (int64_t r : roots) {
        by_dims[graph.node(r).ToSubsetNode().dims].push_back(r);
      }
      for (const auto& [dims, members] : by_dims) {
        if (members.size() <= 1) continue;
        SubsetNode super;
        super.dims = dims;
        super.levels.assign(dims.size(), INT32_MAX);
        for (int64_t r : members) {
          const NodeRow& row = graph.node(r);
          for (size_t i = 0; i < row.pairs.size(); ++i) {
            super.levels[i] = std::min(super.levels[i], row.pairs[i].index);
          }
        }
        super = SetNode(std::move(super));
        ++stats_.table_scans;
        FrequencySet set = std::move(
            FrequencySet::ComputeBatch(run_.table, set_qid_, {super}, pool_,
                                       &governor_)
                .front());
        stats_.freq_groups_built += static_cast<int64_t>(set.NumGroups());
        const int64_t bytes = static_cast<int64_t>(set.MemoryBytes());
        Status charged = governor_.Check();
        if (charged.ok()) charged = governor_.ChargeMemory(bytes);
        if (!charged.ok()) {
          release_all();
          return charged;
        }
        families.emplace(super.dims, RetainedSet{std::move(set), bytes});
      }
    }

    // Scan-sharing batch build (docs/PARALLELISM.md "Scan-sharing batch
    // evaluation"): group the listed nodes that would otherwise scan T by
    // attribute subset and feed each group from ONE pass over the table.
    // The classification mirrors ComputeFrequencySet's source preference,
    // and `stored`/`marked`/`families` only change in Phase B, so a
    // batched node is precisely one that would have scanned on its own.
    // One table scan is counted per (subset, front-or-level) group.
    auto build_batches = [&](const std::vector<int64_t>& list) -> Status {
      std::map<std::vector<int32_t>, std::vector<int64_t>> groups;
      for (int64_t id : list) {
        if (marked[static_cast<size_t>(id)] || batch.count(id) != 0) continue;
        SubsetNode node = SetNode(graph.node(id).ToSubsetNode());
        bool scan = true;
        if (options_.use_rollup) {
          for (int64_t spec : graph.InEdges(id)) {
            if (stored.count(spec) != 0) {
              scan = false;
              break;
            }
          }
        }
        if (scan && families.count(node.dims) != 0) scan = false;
        if (scan) groups[node.dims].push_back(id);
      }
      for (const auto& [dims, group] : groups) {
        (void)dims;
        std::vector<SubsetNode> nodes;
        nodes.reserve(group.size());
        for (int64_t id : group) {
          nodes.push_back(SetNode(graph.node(id).ToSubsetNode()));
        }
        ++stats_.table_scans;
        stats_.batched_scan_nodes += static_cast<int64_t>(group.size());
        Stopwatch timer;
        std::vector<FrequencySet> sets = FrequencySet::ComputeBatch(
            run_.table, set_qid_, nodes, pool_, &governor_);
        stats_.batch_scan_seconds += timer.ElapsedSeconds();
        Status status = governor_.Check();
        for (size_t j = 0; j < group.size() && status.ok(); ++j) {
          const int64_t bytes = static_cast<int64_t>(sets[j].MemoryBytes());
          status = governor_.ChargeMemory(bytes);
          if (status.ok()) {
            batch.emplace(group[j], RetainedSet{std::move(sets[j]), bytes});
          }
        }
        if (!status.ok()) return status;  // the caller's release_all unwinds
      }
      return Status::OK();
    };

    // The frontier, bucketed by height; draining one bucket at a time in
    // ascending id order reproduces the paper's (height, id) queue order.
    std::map<int32_t, std::vector<int64_t>> by_height;
    for (int64_t r : roots) {
      enqueued[static_cast<size_t>(r)] = 1;
      by_height[graph.node(r).Height()].push_back(r);
    }

    const bool batching = options_.batch_scans && run_.cube == nullptr;
    if (batching) {
      // Minimal-front pre-pass: roots can never gain a rollup source or be
      // marked, so one shared scan per subset covers the whole front even
      // when its roots span several heights.
      Status batched = build_batches(roots);
      if (!batched.ok()) {
        release_all();
        return batched;
      }
    }

    enum OutcomeKind : uint8_t { kSkipped, kMarked, kAnonymous, kFailed };
    struct NodeOutcome {
      OutcomeKind kind = kSkipped;
      int64_t bytes = 0;
      FrequencySet freq;
    };

    while (!by_height.empty()) {
      // Catches trips latched by candidate generation, the cube build, or
      // a previous level.
      Status checkpoint = governor_.Check();
      if (!checkpoint.ok()) {
        release_all();
        return checkpoint;
      }
      std::vector<int64_t> ids = std::move(by_height.begin()->second);
      by_height.erase(by_height.begin());
      std::sort(ids.begin(), ids.end());

      // Level top-up: batch the scan-required nodes the front could not
      // have covered.
      if (batching) {
        Status batched = build_batches(ids);
        if (!batched.ok()) {
          release_all();
          return batched;
        }
      }

      // Phase A: evaluate every node of the level. Workers only read the
      // walk's shared state and write their own outcome slots and stats; a
      // trip latches the governor and stops every worker.
      std::vector<NodeOutcome> outcomes(ids.size());
      auto evaluate = [&](int w, size_t begin, size_t end) {
        AlgorithmStats& wstats = run_.worker_stats[static_cast<size_t>(w)];
        for (size_t i = begin; i < end; ++i) {
          if (!governor_.Check().ok()) return;
          const int64_t id = ids[i];
          NodeOutcome& out = outcomes[i];
          if (marked[static_cast<size_t>(id)]) {
            out.kind = kMarked;
            continue;
          }
          FrequencySet freq;
          auto bit = batch.find(id);
          if (bit != batch.end()) {
            // Pre-built (and counted) by a shared scan: swap its retained
            // charge for the per-node charge below.
            governor_.ReleaseMemory(bit->second.bytes);
            bit->second.bytes = 0;
            freq = std::move(bit->second.freq);
          } else {
            freq = ComputeFrequencySet(graph, id, stored, families, &wstats);
          }
          const int64_t bytes = static_cast<int64_t>(freq.MemoryBytes());
          if (!governor_.ChargeMemory(bytes).ok()) return;
          ++wstats.nodes_checked;
          wstats.freq_groups_built += static_cast<int64_t>(freq.NumGroups());
          INCOGNITO_COUNT("incognito.kchecks");
          bool anonymous;
          {
            INCOGNITO_PHASE_TIMER("phase.kcheck_seconds");
            anonymous =
                run_.key_qid == nullptr
                    ? freq.IsKAnonymous(run_.config.k,
                                        run_.config.max_suppressed)
                    : freq.TuplesViolatingDiversity(run_.config.k, run_.l) <=
                          run_.config.max_suppressed;
          }
          if (anonymous) {
            governor_.ReleaseMemory(bytes);
            out.kind = kAnonymous;
          } else {
            out.kind = kFailed;
            out.bytes = bytes;
            out.freq = std::move(freq);
          }
        }
      };
      if (pool_ != nullptr) {
        pool_->Run(ids.size(), evaluate);
      } else {
        evaluate(worker_, 0, ids.size());
      }

      // Every worker-side trip latched the governor.
      Status trip = governor_.Check();
      if (!trip.ok()) {
        for (NodeOutcome& out : outcomes) {
          if (out.kind == kFailed) governor_.ReleaseMemory(out.bytes);
        }
        release_all();
        return trip;
      }

      // Phase B: merge the level's outcomes in ascending node id.
      for (size_t i = 0; i < ids.size(); ++i) {
        const int64_t id = ids[i];
        NodeOutcome& out = outcomes[i];
        batch.erase(id);  // taken; Phase A must not mutate the map
        if (out.kind == kAnonymous) {
          INCOGNITO_PHASE_TIMER("phase.mark_seconds");
          MarkGeneralizations(graph, id, &marked);
        } else if (out.kind == kFailed) {
          failed[static_cast<size_t>(id)] = true;
          const auto& gens = graph.OutEdges(id);
          if (!gens.empty() && options_.use_rollup) {
            pending_uses[id] = static_cast<int64_t>(gens.size());
            stored.emplace(id, RetainedSet{std::move(out.freq), out.bytes});
          } else {
            governor_.ReleaseMemory(out.bytes);
          }
          for (int64_t g : gens) {
            if (!enqueued[static_cast<size_t>(g)]) {
              enqueued[static_cast<size_t>(g)] = 1;
              by_height[graph.node(g).Height()].push_back(g);
            }
          }
        }
        release_parents(id);
      }
    }
    release_all();
    return failed;
  }

 private:
  /// A set held charged to the governor: a failed node's set kept for its
  /// generalizations, or one built ahead of its nodes (super-root or
  /// shared-scan output).
  struct RetainedSet {
    FrequencySet freq;
    int64_t bytes = 0;
  };

  /// The node a candidate's frequency set is built for: the candidate
  /// itself, or under ℓ-diversity the candidate with the sensitive
  /// dimension (the key QID's last) appended at level 0.
  SubsetNode SetNode(SubsetNode node) const {
    if (run_.key_qid != nullptr) {
      node.dims.push_back(static_cast<int32_t>(run_.qid.size()));
      node.levels.push_back(0);
    }
    return node;
  }

  /// A node's frequency set, preferring (Rollup Property) a failed direct
  /// specialization's set, then the cube, then its super-root family, and
  /// scanning T only as a last resort. Reads only level-frozen state.
  FrequencySet ComputeFrequencySet(
      const CandidateGraph& graph, int64_t id,
      const std::unordered_map<int64_t, RetainedSet>& stored,
      const std::map<std::vector<int32_t>, RetainedSet>& families,
      AlgorithmStats* wstats) const {
    const SubsetNode node = SetNode(graph.node(id).ToSubsetNode());
    if (options_.use_rollup) {
      for (int64_t spec : graph.InEdges(id)) {
        auto it = stored.find(spec);
        if (it != stored.end()) {
          // Fault site "incognito.rollup": an injected allocation failure
          // while aggregating latches like a refused charge; every worker
          // stops at its next checkpoint.
          if (INCOGNITO_FAULT_FIRED("incognito.rollup")) {
            governor_.LatchInjectedFailure("incognito.rollup");
          }
          ++wstats->rollups;
          return it->second.freq.RollupTo(node, set_qid_);
        }
      }
    }
    if (run_.cube != nullptr) {
      ++wstats->rollups;
      return run_.cube->Get(node.dims).RollupTo(node, run_.qid);
    }
    auto family = families.find(node.dims);
    if (family != families.end()) {
      ++wstats->rollups;
      return family->second.freq.RollupTo(node, set_qid_);
    }
    ++wstats->table_scans;
    return std::move(FrequencySet::ComputeBatch(run_.table, set_qid_, {node},
                                                nullptr, &governor_)
                         .front());
  }

  void MarkGeneralizations(const CandidateGraph& graph, int64_t id,
                           std::vector<bool>* marked) {
    for (int64_t g : graph.OutEdges(id)) {
      if (!(*marked)[static_cast<size_t>(g)]) {
        (*marked)[static_cast<size_t>(g)] = true;
        ++stats_.nodes_marked;
        INCOGNITO_COUNT("incognito.nodes_marked");
        if (options_.mark_transitively) {
          MarkGeneralizations(graph, g, marked);
        }
      }
    }
  }

  const SearchRun& run_;
  const IncognitoOptions& options_;
  const QuasiIdentifier& set_qid_;  // every frequency set's QID
  ExecutionGovernor& governor_;
  WorkerPool* pool_;     // null: inline on worker_
  int worker_;           // the calling thread's worker id
  AlgorithmStats& stats_;  // worker_'s stats
};

/// One attribute subset of the DAG, indexed by its dimension bitmask.
struct SubsetTask {
  CandidateGraph survivors;  // published survivor graph, adjacency built
  int remaining = 0;         // unpublished immediate sub-subsets
  bool done = false;
  uint64_t ready_ns = 0;     // when the task became runnable (telemetry)
};

CandidateGraph SurvivorGraph(const CandidateGraph& graph,
                             const std::vector<bool>& failed) {
  std::vector<bool> keep(failed.size());
  for (size_t j = 0; j < failed.size(); ++j) keep[j] = !failed[j];
  return graph.InducedSubgraph(keep);
}

std::vector<SubsetNode> SortedNodes(const CandidateGraph& graph) {
  std::vector<SubsetNode> nodes;
  nodes.reserve(graph.num_nodes());
  for (const NodeRow& row : graph.nodes()) nodes.push_back(row.ToSubsetNode());
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace

PartialResult<IncognitoResult> RunSubsetDag(
    const Table& table, const QuasiIdentifier& qid,
    const AnonymizationConfig& config, const IncognitoOptions& options,
    ExecutionGovernor* external, int num_threads,
    const CheckpointPolicy* checkpoint_policy, const QuasiIdentifier* key_qid,
    int64_t l) {
  assert(key_qid == nullptr || (options.variant != IncognitoVariant::kCube &&
                                checkpoint_policy == nullptr));
  INCOGNITO_SPAN("incognito.run");
  INCOGNITO_COUNT("incognito.runs");
  Stopwatch total_timer;
  IncognitoResult result;

  ExecutionGovernor local;  // unlimited / infinite: accounting only
  ExecutionGovernor* governor = external != nullptr ? external : &local;

  WorkerPool pool(num_threads);
  const int workers = pool.size();
#ifndef INCOGNITO_OBS_DISABLED
  // Scheduler telemetry: one event per subset task, plus the pool's own
  // chunk events for the cube build and each apex level.
  obs::TaskTimeline timeline(workers);
  pool.set_timeline(&timeline, "pool.chunk");
#endif
  std::vector<AlgorithmStats> worker_stats(static_cast<size_t>(workers));

  // Crash-safe checkpointing (robust/checkpoint.h): one mask record per
  // finished subset, the apex included; a trip spills the snapshot before
  // the partial result is released.
  std::unique_ptr<CheckpointManager> ckpt;
  CheckpointFingerprint fingerprint;
  if (checkpoint_policy != nullptr && checkpoint_policy->enabled()) {
    fingerprint = MakeCheckpointFingerprint(table, qid, config, options);
    ckpt = std::make_unique<CheckpointManager>(*checkpoint_policy,
                                               fingerprint);
  }

  int64_t task_table_bytes = 0;  // charged to the governor while held
  ZeroGenCube cube;

  // Releases the run's own charges, folds the workers' stats into the
  // result, and derives the scheduler telemetry. Runs exactly once, on
  // every return path.
  auto finalize = [&]() {
    cube.ReleaseMemory(governor);
    governor->ReleaseMemory(task_table_bytes);
    if (ckpt != nullptr) {
      result.stats.checkpoint_writes = ckpt->writes();
      result.stats.checkpoint_bytes = ckpt->bytes_written();
      result.stats.checkpoint_write_failures = ckpt->write_failures();
    }
    for (const AlgorithmStats& ws : worker_stats) {
      result.stats.MergeCounters(ws);
    }
    result.stats.parallel_workers = workers;
    result.stats.total_seconds = total_timer.ElapsedSeconds();
    // Ungoverned runs leave the trip counters at zero.
    if (external != nullptr) external->ExportTrips(&result.stats);
#ifndef INCOGNITO_OBS_DISABLED
    pool.set_timeline(nullptr);
    obs::TimelineStats timeline_stats = timeline.Derive();
    result.stats.tasks_scheduled = timeline_stats.tasks;
    result.stats.critical_path_seconds = timeline_stats.critical_path_seconds;
    result.stats.scheduler_idle_seconds =
        timeline_stats.scheduler_idle_seconds;
    result.worker_utilization = std::move(timeline_stats.worker_utilization);
    if (obs::TraceRecorder::Global().enabled()) {
      timeline.ExportTo(obs::TraceRecorder::Global());
    }
#endif
  };
  auto stop_early = [&](Status trip) -> PartialResult<IncognitoResult> {
    if (ckpt != nullptr) ckpt->WriteNow();  // spill before dying
    finalize();
    if (IsResourceGovernance(trip.code())) {
      return PartialResult<IncognitoResult>::Partial(std::move(trip),
                                                     std::move(result));
    }
    return trip;
  };

  // Resume decision first, so a kRequire failure costs nothing.
  ResumeDecision resume;
  if (ckpt != nullptr) {
    Result<ResumeDecision> decision =
        DecideResume(checkpoint_policy, fingerprint);
    if (!decision.ok()) return stop_early(decision.status());
    resume = std::move(decision).value();
  }

  // One task slot per attribute subset, indexed by dimension bitmask and
  // charged before it exists: 2^n slots for an n-attribute QID. A table
  // larger than physical memory is refused even without a budget (an
  // unlimited governor would accept the charge, and the allocation would
  // throw): a 32-attribute QID asks for 2^32 slots.
  const size_t n = qid.size();
  const uint64_t full = (uint64_t{1} << n) - 1;
  {
    const int64_t bytes =
        static_cast<int64_t>((full + 1) * sizeof(SubsetTask));
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long page_bytes = sysconf(_SC_PAGESIZE);
    const int64_t physical =
        pages > 0 && page_bytes > 0 ? int64_t{pages} * page_bytes : 0;
    if (physical > 0 && bytes > physical) {
      return stop_early(governor->Latch(
          Status::ResourceExhausted(StringPrintf(
              "%zu-attribute quasi-identifier needs a %lld-byte subset task "
              "table, more than the %lld bytes of physical memory",
              n, static_cast<long long>(bytes),
              static_cast<long long>(physical)))));
    }
    Status charged = governor->ChargeMemory(bytes);
    if (!charged.ok()) return stop_early(charged);
    task_table_bytes = bytes;
  }
  std::vector<SubsetTask> tasks(static_cast<size_t>(full) + 1);

  // Subset m's candidate graph: one attribute's hierarchy chain, or
  // generated from the survivor graphs of m's immediate sub-subsets in
  // ascending order of the dropped dimension (GenerateSubsetGraph's
  // contract).
  auto candidates = [&](uint64_t m, ExecutionGovernor* charge_to) {
    if (Popcount(m) == 1) {
      return MakeSingleDimensionChain(
          qid, static_cast<size_t>(__builtin_ctzll(m)));
    }
    std::vector<const CandidateGraph*> parents;
    parents.reserve(static_cast<size_t>(Popcount(m)));
    for (uint64_t bits = m; bits != 0; bits &= bits - 1) {
      parents.push_back(&tasks[m ^ LowestBit(bits)].survivors);
    }
    return GenerateSubsetGraph(parents, nullptr, charge_to);
  };
  // Unfinished immediate sub-subsets of m (none for a single attribute).
  auto pending_parents = [&](uint64_t m) {
    int pending = 0;
    for (uint64_t bits = m; Popcount(m) > 1 && bits != 0; bits &= bits - 1) {
      if (!tasks[m ^ LowestBit(bits)].done) ++pending;
    }
    return pending;
  };

  // Resume: a checkpointed subset restores once all of its immediate
  // sub-subsets have; sub-subset masks are numerically smaller, so
  // ascending mask order is a topological order. Each restored subset's
  // candidate graph is regenerated (no stats counted — the recorded deltas
  // carry them) and its survivors re-anchored into it.
  if (ckpt != nullptr && resume.restore) {
    std::map<uint64_t, const CheckpointRecord*> records;
    for (const CheckpointRecord& rec : resume.snapshot.records) {
      records[rec.mask] = &rec;
    }
    std::vector<uint64_t> restored;
    CheckpointCounters restored_counters;
    Status status;
    for (const auto& [m, rec] : records) {
      if (pending_parents(m) != 0) continue;
      Result<CandidateGraph> survivors =
          RebuildSurvivorGraph(candidates(m, nullptr), rec->survivors);
      if (!survivors.ok()) {
        status = survivors.status();
        break;
      }
      tasks[m].survivors = std::move(survivors).value();
      tasks[m].done = true;
      restored.push_back(m);
      restored_counters += rec->counters;
    }
    if (!status.ok()) {
      if (checkpoint_policy->resume == ResumeMode::kRequire) {
        return stop_early(status);
      }
      for (uint64_t m : restored) tasks[m] = SubsetTask();  // kAuto: fresh
    } else if (!restored.empty()) {
      ckpt->Seed(resume.snapshot);
      result.stats.restored_subsets = static_cast<int64_t>(restored.size());
      AddCounters(restored_counters, &result.stats);
    }
  }

  // Cube Incognito pre-computes every zero-generalization frequency set
  // across the pool before the search starts.
  const ZeroGenCube* cube_ptr = nullptr;
  if (options.variant == IncognitoVariant::kCube) {
    Stopwatch cube_timer;
    ZeroGenCube::BuildInfo info;
    cube = ZeroGenCube::Build(table, qid, pool, &info, governor);
    cube_ptr = &cube;
    result.stats.cube_build_seconds = cube_timer.ElapsedSeconds();
    result.stats.table_scans += info.table_scans;
    result.stats.freq_groups_built += static_cast<int64_t>(info.total_groups);
    if (governor->Tripped()) return stop_early(governor->TripStatus());
  }
  const SearchRun run{table,    qid,          config,  options, cube_ptr,
                      governor, worker_stats, key_qid, l};

  // ---- Subset DAG: every proper subset, dependency-counted --------------
  // Ready tasks run in ascending (size, mask) order: small subsets first,
  // since each one published unblocks work across the next tier.
  struct MaskOrder {
    bool operator()(uint64_t a, uint64_t b) const {
      const int pa = Popcount(a), pb = Popcount(b);
      return pa != pb ? pa < pb : a < b;
    }
  };
  std::set<uint64_t, MaskOrder> ready;
  // tasks_left_for_size[s]: unfinished subsets of size s. The longest
  // prefix of sizes at zero is completed_iterations on a partial run.
  std::vector<int64_t> tasks_left_for_size(n + 1, 0);
  size_t remaining_tasks = 0;
  for (uint64_t m = 1; m < full; ++m) {
    SubsetTask& task = tasks[m];
    if (task.done) continue;
    ++tasks_left_for_size[static_cast<size_t>(Popcount(m))];
    ++remaining_tasks;
    task.remaining = pending_parents(m);
    if (task.remaining == 0) ready.insert(m);
  }
  if (result.stats.restored_subsets > 0) {
    size_t s = 1;
    while (s < n && tasks_left_for_size[s] == 0) ++s;
    result.stats.restored_iterations =
        static_cast<int64_t>(s == n && tasks[full].done ? n : s - 1);
  }

  Status dag_status;  // the first failed task's status
  {
    INCOGNITO_SPAN("incognito.subset_dag");
#ifndef INCOGNITO_OBS_DISABLED
    // Each task records its own timeline event; detach the pool so the
    // thread-group launch below is not also logged as one chunk per worker.
    pool.set_timeline(nullptr);
    const uint64_t dag_ready_ns = obs::TraceRecorder::NowNs();
    for (uint64_t m : ready) tasks[m].ready_ns = dag_ready_ns;
#endif
    std::mutex mu;
    std::condition_variable cv;
    bool stopped = false;
    pool.Run(static_cast<size_t>(workers), [&](int w, size_t, size_t) {
      AlgorithmStats& wstats = worker_stats[static_cast<size_t>(w)];
      LatticeWalk walk(run, nullptr, w);
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        cv.wait(lock, [&] {
          return stopped || remaining_tasks == 0 || !ready.empty();
        });
        if (stopped || remaining_tasks == 0) return;
        const uint64_t m = *ready.begin();
        ready.erase(ready.begin());
        // The parents' survivor graphs were published under this lock
        // before m became ready, and are immutable from then on.
        lock.unlock();
#ifndef INCOGNITO_OBS_DISABLED
        const uint64_t start_ns = obs::TraceRecorder::NowNs();
#endif
        // Snapshot for the checkpoint delta; only this thread touches
        // this worker's stats.
        const AlgorithmStats task_before = wstats;
        Status bad = governor->Check();
        if (bad.ok() && INCOGNITO_FAULT_FIRED("incognito.subset.schedule")) {
          // Fault site "incognito.subset.schedule": an injected failure
          // while dequeuing one subset task; siblings stop at their next
          // checkpoint.
          governor->LatchInjectedFailure("incognito.subset.schedule");
          bad = governor->Check();
        }
        CandidateGraph survivors;
        if (bad.ok()) {
          CandidateGraph graph = candidates(m, governor);
          wstats.candidate_nodes += static_cast<int64_t>(graph.num_nodes());
          Result<std::vector<bool>> failed = walk.Run(graph);
          if (failed.ok()) {
            survivors = SurvivorGraph(graph, failed.value());
          } else {
            bad = failed.status();
          }
        }
#ifndef INCOGNITO_OBS_DISABLED
        {
          obs::TaskEvent event;
          event.mask = static_cast<uint32_t>(m);
          event.worker = w;
          event.enqueue_ns = tasks[m].ready_ns;
          event.start_ns = start_ns;
          event.end_ns = obs::TraceRecorder::NowNs();
          event.name = "subset";
          timeline.Record(std::move(event));
        }
#endif
        if (ckpt != nullptr && bad.ok()) {
          // Outside the scheduler lock: the policy-gated write does I/O.
          ckpt->AddMask(m, SortedNodes(survivors),
                        CounterDelta(task_before, wstats));
          ckpt->MaybeWrite();
        }

        lock.lock();
        if (!bad.ok()) {
          if (dag_status.ok()) dag_status = bad;
          stopped = true;
          cv.notify_all();
          return;
        }
        SubsetTask& task = tasks[m];
        task.survivors = std::move(survivors);
        task.done = true;
        --remaining_tasks;
        --tasks_left_for_size[static_cast<size_t>(Popcount(m))];
        for (uint64_t rest = full & ~m; rest != 0; rest &= rest - 1) {
          const uint64_t child = m | LowestBit(rest);
          if (child != full && --tasks[child].remaining == 0) {
#ifndef INCOGNITO_OBS_DISABLED
            tasks[child].ready_ns = obs::TraceRecorder::NowNs();
#endif
            ready.insert(child);
          }
        }
        if (remaining_tasks == 0 || !ready.empty()) cv.notify_all();
      }
    });
#ifndef INCOGNITO_OBS_DISABLED
    pool.set_timeline(&timeline, "pool.chunk");
#endif
  }

  // Every worker-side trip also latched the governor.
  const Status trip = dag_status.ok() ? governor->Check() : dag_status;

  // Merge the published survivor sets per subset size (the per-mask sets
  // are disjoint; one sort per size gives the sorted S_i). On a trip only
  // the fully finished size prefix is kept — the completed_iterations
  // contract.
  size_t completed = 0;
  while (completed + 1 < n && tasks_left_for_size[completed + 1] == 0) {
    ++completed;
  }
  result.per_iteration_survivors.resize(completed);
  for (uint64_t m = 1; m < full; ++m) {
    const size_t size = static_cast<size_t>(Popcount(m));
    if (size > completed) continue;
    for (const NodeRow& row : tasks[m].survivors.nodes()) {
      result.per_iteration_survivors[size - 1].push_back(row.ToSubsetNode());
    }
  }
  for (std::vector<SubsetNode>& level : result.per_iteration_survivors) {
    INCOGNITO_COUNT("incognito.iterations");
    std::sort(level.begin(), level.end());
  }
  result.completed_iterations = static_cast<int64_t>(completed);
  if (!trip.ok()) return stop_early(trip);

  // ---- Apex: the full-QID graph, each level across the whole pool -------
  INCOGNITO_SPAN("incognito.iteration");
  INCOGNITO_COUNT("incognito.iterations");
  std::vector<SubsetNode> apex_nodes;
  if (tasks[full].done) {
    apex_nodes = SortedNodes(tasks[full].survivors);  // restored
  } else {
    // The walk spreads its counters over every worker's stats, so the
    // apex record's delta comes from summed snapshots.
    auto sum_counters = [&] {
      CheckpointCounters sum = CountersFrom(result.stats);
      for (const AlgorithmStats& ws : worker_stats) sum += CountersFrom(ws);
      return sum;
    };
    const CheckpointCounters before = sum_counters();
    CandidateGraph apex = candidates(full, governor);
    result.stats.candidate_nodes += static_cast<int64_t>(apex.num_nodes());
    Result<std::vector<bool>> failed = LatticeWalk(run, &pool, 0).Run(apex);
    if (!failed.ok()) return stop_early(failed.status());
    apex_nodes = SortedNodes(SurvivorGraph(apex, failed.value()));
    if (ckpt != nullptr) {
      CheckpointCounters delta = sum_counters();
      delta -= before;
      ckpt->AddMask(full, apex_nodes, delta);
      ckpt->WriteNow();  // the run is complete; make it durable
    }
  }
  result.per_iteration_survivors.push_back(apex_nodes);
  result.completed_iterations = static_cast<int64_t>(n);
  result.anonymous_nodes = std::move(apex_nodes);
  finalize();
  return result;
}

}  // namespace incognito
