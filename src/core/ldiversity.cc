#include "core/ldiversity.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "core/incognito.h"
#include "core/parallel.h"
#include "obs/obs.h"

namespace incognito {

Result<DiversityKey> DiversityKey::Create(const Table& table,
                                          const QuasiIdentifier& qid,
                                          const LDiversityConfig& config) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (config.l < 1) return Status::InvalidArgument("l must be >= 1");
  if (config.max_suppressed < 0) {
    return Status::InvalidArgument("max_suppressed must be >= 0");
  }
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  if (qid.size() > kMaxQidAttributes) {
    return Status::InvalidArgument(StringPrintf(
        "quasi-identifier has %zu attributes; at most %zu are supported",
        qid.size(), kMaxQidAttributes));
  }
  Result<size_t> sensitive =
      table.schema().ColumnIndex(config.sensitive_attribute);
  if (!sensitive.ok()) return sensitive.status();
  std::vector<std::pair<std::string, ValueHierarchy>> attributes;
  attributes.reserve(qid.size() + 1);
  for (size_t i = 0; i < qid.size(); ++i) {
    if (qid.column(i) == sensitive.value()) {
      return Status::InvalidArgument(
          "sensitive attribute '" + config.sensitive_attribute +
          "' must not be part of the quasi-identifier");
    }
    attributes.emplace_back(qid.name(i), qid.hierarchy(i));
  }
  const Dictionary& dict = table.dictionary(sensitive.value());
  std::vector<Value> values;
  values.reserve(dict.size());
  for (size_t c = 0; c < dict.size(); ++c) {
    values.push_back(dict.value(static_cast<int32_t>(c)));
  }
  Result<ValueHierarchy> level0 = ValueHierarchy::Create(
      config.sensitive_attribute, {std::move(values)}, {});
  if (!level0.ok()) return level0.status();
  attributes.emplace_back(config.sensitive_attribute,
                          std::move(level0).value());
  Result<QuasiIdentifier> key_qid =
      QuasiIdentifier::Create(table, std::move(attributes));
  if (!key_qid.ok()) return key_qid.status();
  DiversityKey key;
  key.qid_ = std::move(key_qid).value();
  return key;
}

SubsetNode DiversityKey::KeyNode(SubsetNode node) const {
  node.dims.push_back(static_cast<int32_t>(qid_.size() - 1));
  node.levels.push_back(0);
  return node;
}

FrequencySet DiversityKey::Compute(const Table& table,
                                   const SubsetNode& node) const {
  return FrequencySet::Compute(table, qid_, KeyNode(node));
}

void DiversityKey::ForEachClass(
    const FrequencySet& set,
    const std::function<void(const int32_t* codes, int64_t tuples,
                             int64_t distinct)>& fn) {
  // Every field but the trailing sensitive one.
  const size_t width = set.node().size() - 1;
  std::vector<int32_t> codes;
  int64_t tuples = 0;
  int64_t distinct = 0;
  set.ForEachGroup([&](const int32_t* group, int64_t count) {
    if (distinct > 0 && !std::equal(group, group + width, codes.begin())) {
      fn(codes.data(), tuples, distinct);
      tuples = 0;
      distinct = 0;
    }
    codes.assign(group, group + width);
    tuples += count;
    ++distinct;
  });
  if (distinct > 0) fn(codes.data(), tuples, distinct);
}

PartialResult<LDiversityResult> RunLDiversityIncognito(
    const Table& table, const QuasiIdentifier& qid,
    const LDiversityConfig& config, const RunContext& ctx) {
  INCOGNITO_SPAN("ldiversity.run");
  INCOGNITO_COUNT("ldiversity.runs");
  Result<DiversityKey> key = DiversityKey::Create(table, qid, config);
  if (!key.ok()) return key.status();
  AnonymizationConfig bounds;
  bounds.k = config.k;
  bounds.max_suppressed = config.max_suppressed;
  PartialResult<IncognitoResult> search = RunSubsetDag(
      table, qid, bounds, IncognitoOptions(), ctx.governor,
      std::max(1, ctx.num_threads),
      /*checkpoint=*/nullptr, &key->qid(), config.l);
  if (search.hard_error()) return search.status();
  LDiversityResult result;
  result.diverse_nodes = std::move(search->anonymous_nodes);
  result.completed_iterations = search->completed_iterations;
  result.stats = std::move(search->stats);
  if (search.partial()) {
    return PartialResult<LDiversityResult>::Partial(search.status(),
                                                    std::move(result));
  }
  return result;
}

Result<DiverseRecodeResult> ApplyDiverseGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const LDiversityConfig& config) {
  if (node.size() != qid.size()) {
    return Status::InvalidArgument(
        "node must generalize the full quasi-identifier");
  }
  Result<DiversityKey> key = DiversityKey::Create(table, qid, config);
  if (!key.ok()) return key.status();

  FrequencySet freq = key->Compute(table, node);
  int64_t violating = freq.TuplesViolatingDiversity(config.k, config.l);
  if (violating > config.max_suppressed) {
    return Status::FailedPrecondition(StringPrintf(
        "generalization %s violates (k=%lld, l=%lld) for %lld tuples, "
        "beyond the suppression budget %lld",
        node.ToString(&qid).c_str(), static_cast<long long>(config.k),
        static_cast<long long>(config.l), static_cast<long long>(violating),
        static_cast<long long>(config.max_suppressed)));
  }

  // Collect violating classes as a code-keyed set, then rebuild the view.
  const size_t n = qid.size();
  std::set<std::vector<int32_t>> violating_groups;
  DiversityKey::ForEachClass(
      freq, [&](const int32_t* codes, int64_t tuples, int64_t distinct) {
        if (tuples < config.k || distinct < config.l) {
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
