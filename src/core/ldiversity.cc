#include "core/ldiversity.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "freq/sensitive_frequency_set.h"
#include "lattice/candidate_gen.h"
#include "lattice/graph_tables.h"
#include "obs/obs.h"
#include "robust/governor.h"

namespace incognito {

namespace {

/// The modified breadth-first search of paper §3.1.1, evaluating the
/// combined k-anonymity + distinct ℓ-diversity predicate on sensitive
/// frequency sets. Mirrors the k-anonymity LatticeWalk (core/parallel.cc);
/// kept separate because the measure it carries (per-group sensitive sets)
/// differs.
class DiversityWalk {
 public:
  DiversityWalk(const Table& table, const QuasiIdentifier& qid,
                const LDiversityConfig& config, size_t sensitive_column,
                AlgorithmStats* stats, ExecutionGovernor* governor)
      : table_(table),
        qid_(qid),
        config_(config),
        sensitive_column_(sensitive_column),
        stats_(stats),
        governor_(governor) {}

  /// Non-OK when the governor tripped mid-search; the failed vector
  /// returned by Run is then meaningless and the caller must unwind.
  const Status& trip() const { return trip_; }

  std::vector<bool> Run(const CandidateGraph& graph) {
    const size_t n = graph.num_nodes();
    std::vector<bool> failed(n, false);
    std::vector<bool> marked(n, false);
    std::vector<bool> processed(n, false);
    std::unordered_map<int64_t, SensitiveFrequencySet> stored;
    std::unordered_map<int64_t, int64_t> pending_uses;
    // Bytes charged against the governor per stored frequency set.
    std::unordered_map<int64_t, int64_t> stored_bytes;

    std::set<std::pair<int32_t, int64_t>> queue;
    for (int64_t r : graph.Roots()) {
      queue.insert({graph.node(r).Height(), r});
    }
    auto release_parents = [&](int64_t id) {
      for (int64_t spec : graph.InEdges(id)) {
        auto it = pending_uses.find(spec);
        if (it != pending_uses.end() && --it->second == 0) {
          stored.erase(spec);
          pending_uses.erase(it);
          auto bytes = stored_bytes.find(spec);
          if (bytes != stored_bytes.end()) {
            if (governor_ != nullptr) governor_->ReleaseMemory(bytes->second);
            stored_bytes.erase(bytes);
          }
        }
      }
    };

    while (!queue.empty()) {
      if (governor_ != nullptr && trip_.ok()) trip_ = governor_->Check();
      if (!trip_.ok()) break;
      auto [height, id] = *queue.begin();
      queue.erase(queue.begin());
      (void)height;
      if (processed[static_cast<size_t>(id)]) continue;
      processed[static_cast<size_t>(id)] = true;
      if (marked[static_cast<size_t>(id)]) {
        release_parents(id);
        continue;
      }

      SubsetNode node = graph.node(id).ToSubsetNode();
      SensitiveFrequencySet freq = [&] {
        for (int64_t spec : graph.InEdges(id)) {
          auto it = stored.find(spec);
          if (it != stored.end()) {
            ++stats_->rollups;
            return it->second.RollupTo(node, qid_);
          }
        }
        ++stats_->table_scans;
        return SensitiveFrequencySet::Compute(table_, qid_, node,
                                              sensitive_column_);
      }();
      ++stats_->nodes_checked;
      stats_->freq_groups_built += static_cast<int64_t>(freq.NumGroups());
      const int64_t freq_bytes = static_cast<int64_t>(freq.MemoryBytes());
      if (governor_ != nullptr) {
        Status charged = governor_->ChargeMemory(freq_bytes);
        if (!charged.ok()) {
          trip_ = std::move(charged);
          break;
        }
      }

      bool kept = false;
      if (freq.IsKAnonymousAndLDiverse(config_.k, config_.l,
                                       config_.max_suppressed)) {
        Mark(graph, id, &marked);
      } else {
        failed[static_cast<size_t>(id)] = true;
        const auto& gens = graph.OutEdges(id);
        if (!gens.empty()) {
          pending_uses[id] = static_cast<int64_t>(gens.size());
          stored.emplace(id, std::move(freq));
          stored_bytes[id] = freq_bytes;
          kept = true;
        }
        for (int64_t g : gens) {
          queue.insert({graph.node(g).Height(), g});
        }
      }
      if (!kept && governor_ != nullptr) governor_->ReleaseMemory(freq_bytes);
      release_parents(id);
    }

    // Balance the budget on every exit path (including a mid-search trip).
    if (governor_ != nullptr) {
      for (const auto& [id, bytes] : stored_bytes) {
        (void)id;
        governor_->ReleaseMemory(bytes);
      }
    }
    return failed;
  }

 private:
  void Mark(const CandidateGraph& graph, int64_t id,
            std::vector<bool>* marked) {
    for (int64_t g : graph.OutEdges(id)) {
      if (!(*marked)[static_cast<size_t>(g)]) {
        (*marked)[static_cast<size_t>(g)] = true;
        ++stats_->nodes_marked;
        Mark(graph, g, marked);
      }
    }
  }

  const Table& table_;
  const QuasiIdentifier& qid_;
  const LDiversityConfig& config_;
  size_t sensitive_column_;
  AlgorithmStats* stats_;
  ExecutionGovernor* governor_;
  Status trip_;
};

}  // namespace

PartialResult<LDiversityResult> RunLDiversityIncognito(
    const Table& table, const QuasiIdentifier& qid,
    const LDiversityConfig& config, const RunContext& ctx) {
  INCOGNITO_SPAN("ldiversity.run");
  INCOGNITO_COUNT("ldiversity.runs");
  ExecutionGovernor* governor = ctx.governor;
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (config.l < 1) return Status::InvalidArgument("l must be >= 1");
  if (config.max_suppressed < 0) {
    return Status::InvalidArgument("max_suppressed must be >= 0");
  }
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  Result<size_t> sensitive =
      table.schema().ColumnIndex(config.sensitive_attribute);
  if (!sensitive.ok()) return sensitive.status();
  for (size_t i = 0; i < qid.size(); ++i) {
    if (qid.column(i) == sensitive.value()) {
      return Status::InvalidArgument(
          "sensitive attribute '" + config.sensitive_attribute +
          "' must not be part of the quasi-identifier");
    }
  }

  Stopwatch timer;
  LDiversityResult result;
  DiversityWalk search(table, qid, config, sensitive.value(),
                              &result.stats, governor);

  // Wraps a budget trip into a partial result: completed_iterations
  // records the subset sizes fully processed; diverse_nodes stays empty
  // (no complete S_n was proven).
  auto stop_early = [&](Status trip) -> PartialResult<LDiversityResult> {
    result.diverse_nodes.clear();
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (governor != nullptr) governor->ExportTrips(&result.stats);
    if (IsResourceGovernance(trip.code())) {
      return PartialResult<LDiversityResult>::Partial(std::move(trip),
                                                      std::move(result));
    }
    return trip;
  };

  CandidateGraph graph = MakeSingleAttributeGraph(qid);
  const size_t n = qid.size();
  for (size_t i = 1; i <= n; ++i) {
    result.stats.candidate_nodes += static_cast<int64_t>(graph.num_nodes());
    std::vector<bool> failed = search.Run(graph);
    if (!search.trip().ok()) return stop_early(search.trip());
    std::vector<bool> keep(failed.size());
    for (size_t j = 0; j < failed.size(); ++j) keep[j] = !failed[j];
    CandidateGraph survivors = graph.InducedSubgraph(keep);
    result.completed_iterations = static_cast<int64_t>(i);
    if (i == n) {
      for (const NodeRow& row : survivors.nodes()) {
        result.diverse_nodes.push_back(row.ToSubsetNode());
      }
      std::sort(result.diverse_nodes.begin(), result.diverse_nodes.end());
      break;
    }
    graph = GenerateNextGraph(survivors);
  }
  result.stats.total_seconds = timer.ElapsedSeconds();
  if (governor != nullptr) governor->ExportTrips(&result.stats);
  return result;
}

Result<DiverseRecodeResult> ApplyDiverseGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const LDiversityConfig& config) {
  if (node.size() != qid.size()) {
    return Status::InvalidArgument(
        "node must generalize the full quasi-identifier");
  }
  Result<size_t> sensitive =
      table.schema().ColumnIndex(config.sensitive_attribute);
  if (!sensitive.ok()) return sensitive.status();

  SensitiveFrequencySet freq = SensitiveFrequencySet::Compute(
      table, qid, node, sensitive.value());
  int64_t violating = freq.TuplesViolating(config.k, config.l);
  if (violating > config.max_suppressed) {
    return Status::FailedPrecondition(StringPrintf(
        "generalization %s violates (k=%lld, l=%lld) for %lld tuples, "
        "beyond the suppression budget %lld",
        node.ToString(&qid).c_str(), static_cast<long long>(config.k),
        static_cast<long long>(config.l), static_cast<long long>(violating),
        static_cast<long long>(config.max_suppressed)));
  }

  // Collect violating groups as label-keyed set, then rebuild the view.
  const size_t n = qid.size();
  std::set<std::vector<int32_t>> violating_groups;
  freq.ForEachGroup(
      [&](const int32_t* codes, int64_t count, int64_t distinct) {
        if (count < config.k || distinct < config.l) {
          violating_groups.insert(std::vector<int32_t>(codes, codes + n));
        }
      });

  std::vector<const int32_t*> maps(n);
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    maps[i] = qid.hierarchy(i)
                  .BaseToLevelMap(static_cast<size_t>(node.levels[i]))
                  .data();
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }

  std::vector<ColumnSpec> specs(table.schema().columns());
  for (size_t i = 0; i < n; ++i) {
    if (node.levels[i] > 0) specs[qid.column(i)].type = DataType::kString;
  }
  DiverseRecodeResult result;
  result.view = Table{Schema(std::move(specs))};
  std::vector<Value> row(table.num_columns());
  std::vector<int32_t> gen(n);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < n; ++i) gen[i] = maps[i][cols[i][r]];
    if (violating_groups.count(gen) > 0) {
      ++result.suppressed_tuples;
      continue;
    }
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row[c] = table.GetValue(r, c);
    }
    for (size_t i = 0; i < n; ++i) {
      size_t level = static_cast<size_t>(node.levels[i]);
      if (level > 0) {
        row[qid.column(i)] =
            Value(qid.hierarchy(i).LevelValue(level, gen[i]).ToString());
      }
    }
    INCOGNITO_RETURN_IF_ERROR(result.view.AppendRow(row));
  }
  return result;
}

}  // namespace incognito
