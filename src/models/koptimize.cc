#include "models/koptimize.h"

#include <algorithm>
#include <unordered_map>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "freq/frequency_set.h"
#include "obs/obs.h"
#include "relation/view.h"
#include "robust/governor.h"

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

/// Search state shared across the set-enumeration walk.
class Search {
 public:
  Search(const QuasiIdentifier& qid, std::vector<std::vector<int32_t>> ranks,
         std::vector<int64_t> counts,
         std::vector<std::pair<size_t, size_t>> cut_points, int64_t total,
         const AnonymizationConfig& config, const KOptimizeOptions& options,
         ExecutionGovernor* governor)
      : qid_(qid),
        ranks_(std::move(ranks)),
        counts_(std::move(counts)),
        cut_points_(std::move(cut_points)),
        total_(total),
        config_(config),
        options_(options),
        governor_(governor) {
    domain_sizes_.resize(qid_.size());
    for (size_t i = 0; i < qid_.size(); ++i) {
      domain_sizes_[i] = qid_.hierarchy(i).DomainSize(0);
    }
  }

  /// Cost of the partition induced by `mask`: Σ released-class² plus
  /// |T| per suppressed tuple.
  double Cost(uint32_t mask) {
    GroupSizes(mask, &group_sizes_);
    double cost = 0;
    for (int64_t size : group_sizes_) {
      if (size >= config_.k) {
        cost += static_cast<double>(size) * size;
      } else {
        cost += static_cast<double>(size) * static_cast<double>(total_);
      }
    }
    return cost;
  }

  /// Admissible lower bound for every partition coarser than `mask`
  /// (i.e. using any subset of mask's cuts): a tuple whose subgroup under
  /// `mask` has size s ends in a class of size >= s; if released that
  /// class also has size >= k, and suppression costs |T| >= max(s, k).
  double LowerBound(uint32_t mask) {
    GroupSizes(mask, &group_sizes_);
    double bound = 0;
    for (int64_t size : group_sizes_) {
      bound += static_cast<double>(size) *
               static_cast<double>(std::max<int64_t>(size, config_.k));
    }
    return bound;
  }

  void Dfs(uint32_t mask, size_t next_index) {
    if (governor_ != nullptr && trip_.ok()) trip_ = governor_->Check();
    if (!trip_.ok()) return;
    if (options_.max_nodes > 0 && nodes_visited_ >= options_.max_nodes) {
      complete_ = false;
      return;
    }
    ++nodes_visited_;
    double cost = Cost(mask);
    if (cost < best_cost_) {
      best_cost_ = cost;
      best_mask_ = mask;
    }
    for (size_t idx = next_index; idx < cut_points_.size(); ++idx) {
      uint32_t child = mask | (1u << idx);
      // Everything reachable below the child also has all cuts > idx
      // available; bound against the fully refined mask.
      uint32_t refined = child;
      for (size_t j = idx + 1; j < cut_points_.size(); ++j) {
        refined |= 1u << j;
      }
      if (LowerBound(refined) >= best_cost_) {
        ++nodes_pruned_;
        continue;
      }
      Dfs(child, idx + 1);
      if (!trip_.ok()) return;
    }
  }

  double best_cost() const { return best_cost_; }
  uint32_t best_mask() const { return best_mask_; }
  int64_t nodes_visited() const { return nodes_visited_; }
  int64_t nodes_pruned() const { return nodes_pruned_; }
  bool complete() const { return complete_; }

  /// Non-OK when the governor tripped mid-enumeration; best_mask() then
  /// holds the best cut set proven before the trip.
  const Status& trip() const { return trip_; }

  /// Interval id of each rank of attribute `attr` under `mask`.
  void IntervalOfRank(uint32_t mask, size_t attr,
                      std::vector<int32_t>* out) const {
    out->assign(domain_sizes_[attr], 0);
    int32_t interval = 0;
    for (size_t rank = 1; rank < domain_sizes_[attr]; ++rank) {
      for (size_t c = 0; c < cut_points_.size(); ++c) {
        if ((mask & (1u << c)) && cut_points_[c].first == attr &&
            cut_points_[c].second == rank) {
          ++interval;
          break;
        }
      }
      (*out)[rank] = interval;
    }
  }

 private:
  /// Group sizes of the distinct-vector multiset under `mask`.
  void GroupSizes(uint32_t mask, std::vector<int64_t>* sizes) {
    const size_t n = qid_.size();
    std::vector<std::vector<int32_t>> interval(n);
    for (size_t i = 0; i < n; ++i) IntervalOfRank(mask, i, &interval[i]);
    std::unordered_map<std::vector<int32_t>, int64_t, VecHash> groups;
    std::vector<int32_t> key(n);
    for (size_t v = 0; v < ranks_.size(); ++v) {
      for (size_t i = 0; i < n; ++i) {
        key[i] = interval[i][static_cast<size_t>(ranks_[v][i])];
      }
      groups[key] += counts_[v];
    }
    sizes->clear();
    for (const auto& [k, size] : groups) {
      (void)k;
      sizes->push_back(size);
    }
  }

  const QuasiIdentifier& qid_;
  std::vector<std::vector<int32_t>> ranks_;  // distinct vectors, as ranks
  std::vector<int64_t> counts_;
  std::vector<std::pair<size_t, size_t>> cut_points_;
  std::vector<size_t> domain_sizes_;
  int64_t total_;
  const AnonymizationConfig& config_;
  const KOptimizeOptions& options_;
  ExecutionGovernor* governor_;
  Status trip_;

  double best_cost_ = 1e300;
  uint32_t best_mask_ = 0;
  int64_t nodes_visited_ = 0;
  int64_t nodes_pruned_ = 0;
  bool complete_ = true;
  std::vector<int64_t> group_sizes_;  // scratch
};

}  // namespace

PartialResult<KOptimizeResult> RunKOptimize(const Table& table,
                                            const QuasiIdentifier& qid,
                                            const AnonymizationConfig& config,
                                            const KOptimizeOptions& options,
                                            const RunContext& ctx) {
  INCOGNITO_SPAN("model.koptimize");
  INCOGNITO_COUNT("model.koptimize.runs");
  ExecutionGovernor* governor = ctx.governor;
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  const size_t n = qid.size();
  if (n == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }

  // Candidate cut points over the sorted domains.
  std::vector<std::pair<size_t, size_t>> cut_points;
  for (size_t i = 0; i < n; ++i) {
    for (size_t rank = 1; rank < table.dictionary(qid.column(i)).size();
         ++rank) {
      cut_points.emplace_back(i, rank);
    }
  }
  if (cut_points.size() > options.max_total_cuts ||
      cut_points.size() > 31) {
    return Status::NotSupported(StringPrintf(
        "%zu candidate cut points exceed the cap of %zu; pre-bin the "
        "domains or use the greedy RunOrderedSetPartition",
        cut_points.size(), options.max_total_cuts));
  }

  // Distinct rank vectors with multiplicities.
  std::vector<std::vector<int32_t>> rank_of_code(n);
  std::vector<std::vector<int32_t>> sorted(n);
  for (size_t i = 0; i < n; ++i) {
    const Dictionary& dict = table.dictionary(qid.column(i));
    sorted[i] = dict.SortedCodes();
    rank_of_code[i].resize(dict.size());
    for (size_t rank = 0; rank < sorted[i].size(); ++rank) {
      rank_of_code[i][static_cast<size_t>(sorted[i][rank])] =
          static_cast<int32_t>(rank);
    }
  }
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  Stopwatch timer;
  KOptimizeResult result;
  FrequencySet freq = FrequencySet::Compute(
      table, qid, SubsetNode(dims, std::vector<int32_t>(n, 0)));
  ++result.stats.table_scans;
  const int64_t freq_bytes = static_cast<int64_t>(freq.MemoryBytes());
  if (governor != nullptr) {
    Status charged = governor->ChargeMemory(freq_bytes);
    if (!charged.ok()) {
      result.stats.total_seconds = timer.ElapsedSeconds();
      governor->ExportTrips(&result.stats);
      return PartialResult<KOptimizeResult>::Partial(std::move(charged),
                                                     std::move(result));
    }
  }
  std::vector<std::vector<int32_t>> vectors;
  std::vector<int64_t> counts;
  freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
    std::vector<int32_t> ranks(n);
    for (size_t i = 0; i < n; ++i) {
      ranks[i] = rank_of_code[i][static_cast<size_t>(codes[i])];
    }
    vectors.push_back(std::move(ranks));
    counts.push_back(count);
  });

  Search search(qid, std::move(vectors), std::move(counts), cut_points,
                static_cast<int64_t>(table.num_rows()), config, options,
                governor);
  search.Dfs(0, 0);
  if (governor != nullptr) governor->ReleaseMemory(freq_bytes);

  // Stamps search effort and governor activity into the result.
  auto finalize = [&]() {
    result.nodes_visited = search.nodes_visited();
    result.nodes_pruned = search.nodes_pruned();
    result.stats.nodes_checked = search.nodes_visited();
    result.stats.total_seconds = timer.ElapsedSeconds();
    if (governor != nullptr) governor->ExportTrips(&result.stats);
  };

  // Materializes the partition induced by `mask` (cuts, cost, released
  // view with undersized classes suppressed) into `result`.
  auto materialize = [&](uint32_t mask) {
    result.cost = search.Cost(mask);
    for (size_t c = 0; c < cut_points.size(); ++c) {
      if (mask & (1u << c)) result.cuts.push_back(cut_points[c]);
    }

    std::vector<std::vector<int32_t>> interval(n);
    std::vector<std::vector<std::string>> labels(n);
    for (size_t i = 0; i < n; ++i) {
      search.IntervalOfRank(mask, i, &interval[i]);
      const Dictionary& dict = table.dictionary(qid.column(i));
      int32_t num_intervals = interval[i].empty() ? 0 : interval[i].back() + 1;
      labels[i].resize(static_cast<size_t>(num_intervals));
      for (int32_t t = 0; t < num_intervals; ++t) {
        size_t lo = 0, hi = 0;
        bool first = true;
        for (size_t rank = 0; rank < interval[i].size(); ++rank) {
          if (interval[i][rank] == t) {
            if (first) lo = rank;
            hi = rank;
            first = false;
          }
        }
        const Value& lo_v = dict.value(sorted[i][lo]);
        const Value& hi_v = dict.value(sorted[i][hi]);
        labels[i][static_cast<size_t>(t)] =
            lo == hi ? lo_v.ToString()
                     : "[" + lo_v.ToString() + "-" + hi_v.ToString() + "]";
      }
    }

    // Per-row interval keys; rows in classes smaller than k are
    // suppressed.
    const size_t rows = table.num_rows();
    std::vector<std::vector<int32_t>> row_keys(n, std::vector<int32_t>(rows));
    std::unordered_map<std::vector<int32_t>, int64_t, VecHash> class_sizes;
    std::vector<int32_t> key(n);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t i = 0; i < n; ++i) {
        int32_t rank = rank_of_code[i][static_cast<size_t>(
            table.GetCode(r, qid.column(i)))];
        key[i] = row_keys[i][r] = interval[i][static_cast<size_t>(rank)];
      }
      ++class_sizes[key];
    }
    std::vector<size_t> released;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t i = 0; i < n; ++i) key[i] = row_keys[i][r];
      if (class_sizes[key] < config.k) {
        ++result.suppressed_tuples;
      } else {
        released.push_back(r);
      }
    }
    std::vector<ViewLabels> replaced(n);
    for (size_t i = 0; i < n; ++i) {
      replaced[i].column = qid.column(i);
      replaced[i].labels = std::move(labels[i]);
      for (size_t r : released) {
        replaced[i].label_of_row.push_back(row_keys[i][r]);
      }
    }
    result.view = BuildView(table, released, std::move(replaced));
  };

  if (!search.trip().ok()) {
    // Budget tripped mid-enumeration: release the best cut set proven so
    // far. Any mask induces a k-anonymous view (undersized classes are
    // suppressed), so the partial value is sound — just not provably
    // optimal. A trip before the first node leaves best_mask() == 0, the
    // fully-generalized partition.
    materialize(search.best_mask());
    finalize();
    return PartialResult<KOptimizeResult>::Partial(search.trip(),
                                                   std::move(result));
  }
  if (!search.complete()) {
    return Status::Internal(StringPrintf(
        "search aborted after %lld nodes (max_nodes); result would not be "
        "provably optimal",
        static_cast<long long>(search.nodes_visited())));
  }

  // Materialize the winning partition.
  materialize(search.best_mask());
  finalize();
  return result;
}

}  // namespace incognito
