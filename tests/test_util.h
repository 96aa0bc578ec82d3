#ifndef INCOGNITO_TESTS_TEST_UTIL_H_
#define INCOGNITO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/quasi_identifier.h"
#include "core/worker_pool.h"
#include "freq/frequency_set.h"
#include "hierarchy/hierarchy.h"
#include "lattice/lattice.h"
#include "lattice/node.h"
#include "relation/table.h"

namespace incognito {
namespace testing_util {

/// A randomly generated dataset for property tests.
struct RandomDataset {
  Table table;
  QuasiIdentifier qid;
};

/// Builds a random well-formed hierarchy over `domain_size` base values
/// with `height` generalization levels. Level sizes shrink geometrically;
/// parent maps are random but surjective; the top level has one value.
inline ValueHierarchy MakeRandomHierarchy(const std::string& name,
                                          size_t domain_size, size_t height,
                                          Rng& rng) {
  std::vector<size_t> sizes(height + 1);
  sizes[0] = domain_size;
  for (size_t l = 1; l <= height; ++l) {
    size_t prev = sizes[l - 1];
    size_t next = std::max<size_t>(1, prev / 2);
    if (l == height) next = 1;  // single root
    if (next >= prev && prev > 1) next = prev - 1;
    sizes[l] = next;
  }
  std::vector<std::vector<Value>> level_values(height + 1);
  for (size_t l = 0; l <= height; ++l) {
    for (size_t c = 0; c < sizes[l]; ++c) {
      level_values[l].push_back(
          Value(StringPrintf("%s_L%zu_%zu", name.c_str(), l, c)));
    }
  }
  std::vector<std::vector<int32_t>> parents(height);
  for (size_t l = 0; l < height; ++l) {
    parents[l].resize(sizes[l]);
    // Surjectivity: the first sizes[l+1] children map to distinct parents.
    for (size_t c = 0; c < sizes[l]; ++c) {
      if (c < sizes[l + 1]) {
        parents[l][c] = static_cast<int32_t>(c);
      } else {
        parents[l][c] = static_cast<int32_t>(rng.Uniform(sizes[l + 1]));
      }
    }
  }
  Result<ValueHierarchy> h = ValueHierarchy::Create(name, level_values,
                                                    parents);
  // Test helper: construction from valid shapes cannot fail.
  return std::move(h).value();
}

/// Options for MakeRandomDataset.
struct RandomDatasetOptions {
  size_t num_attrs = 3;
  size_t min_domain = 2;
  size_t max_domain = 8;
  size_t max_height = 3;
  size_t num_rows = 60;
};

/// Builds a random table + quasi-identifier. Every value of every domain
/// is pre-inserted in the dictionaries so hierarchies align.
inline RandomDataset MakeRandomDataset(Rng& rng,
                                       const RandomDatasetOptions& opts = {}) {
  std::vector<ColumnSpec> specs;
  for (size_t i = 0; i < opts.num_attrs; ++i) {
    specs.push_back({StringPrintf("attr%zu", i), DataType::kString});
  }
  Table table{Schema(specs)};

  std::vector<size_t> domain_sizes(opts.num_attrs);
  std::vector<size_t> heights(opts.num_attrs);
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < opts.num_attrs; ++i) {
    domain_sizes[i] =
        opts.min_domain + rng.Uniform(opts.max_domain - opts.min_domain + 1);
    heights[i] = 1 + rng.Uniform(opts.max_height);
    ValueHierarchy h = MakeRandomHierarchy(StringPrintf("attr%zu", i),
                                           domain_sizes[i], heights[i], rng);
    // Prefill the dictionary to match the hierarchy's base domain.
    Dictionary& dict = table.mutable_dictionary(i);
    for (size_t c = 0; c < domain_sizes[i]; ++c) {
      dict.GetOrInsert(h.LevelValue(0, static_cast<int32_t>(c)));
    }
    hierarchies.emplace_back(StringPrintf("attr%zu", i), std::move(h));
  }
  std::vector<int32_t> codes(opts.num_attrs);
  for (size_t r = 0; r < opts.num_rows; ++r) {
    for (size_t i = 0; i < opts.num_attrs; ++i) {
      codes[i] = static_cast<int32_t>(rng.Uniform(domain_sizes[i]));
    }
    table.AppendRowCodes(codes);
  }
  Result<QuasiIdentifier> qid =
      QuasiIdentifier::Create(table, std::move(hierarchies));
  RandomDataset out;
  out.table = std::move(table);
  out.qid = std::move(qid).value();
  return out;
}

/// Builds the vector-key fallback fixture: `attrs` attributes (six by
/// default) whose 4096-value domains need 12 key bits each — six need 72,
/// beyond the 64-bit packed fast path — each with a two-level (value, '*')
/// hierarchy. Row values are drawn from a small range so groups repeat
/// despite the huge domains. Deterministic: the same arguments always
/// yield the same table.
inline RandomDataset MakeWideFallbackDataset(size_t num_rows,
                                             size_t attrs = 6) {
  const size_t kDomain = 4096;
  std::vector<ColumnSpec> specs;
  for (size_t i = 0; i < attrs; ++i) {
    specs.push_back({StringPrintf("a%zu", i), DataType::kInt64});
  }
  Table table{Schema(specs)};
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < attrs; ++i) {
    Dictionary& dict = table.mutable_dictionary(i);
    std::vector<std::vector<Value>> levels(2);
    std::vector<std::vector<int32_t>> parents(1);
    for (size_t v = 0; v < kDomain; ++v) {
      Value value(static_cast<int64_t>(v));
      dict.GetOrInsert(value);
      levels[0].push_back(value);
      parents[0].push_back(0);
    }
    levels[1].push_back(Value("*"));
    hierarchies.emplace_back(
        StringPrintf("a%zu", i),
        ValueHierarchy::Create(StringPrintf("a%zu", i), levels, parents)
            .value());
  }
  Rng rng(31337);
  std::vector<int32_t> codes(attrs);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t i = 0; i < attrs; ++i) {
      codes[i] = static_cast<int32_t>(rng.Uniform(3));
    }
    table.AppendRowCodes(codes);
  }
  Result<QuasiIdentifier> qid =
      QuasiIdentifier::Create(table, std::move(hierarchies));
  RandomDataset out;
  out.table = std::move(table);
  out.qid = std::move(qid).value();
  return out;
}

/// `n` attributes a0..a(n-1) over two rows that differ in every attribute,
/// each with a height-1 hierarchy {x, y} -> '*'. At k = 2 every base level
/// fails and every top level passes, so each of the 2^n - 1 attribute
/// subsets holds exactly one survivor: its all-top node.
inline RandomDataset MakeTwoRowDataset(size_t n) {
  std::vector<ColumnSpec> specs;
  for (size_t i = 0; i < n; ++i) {
    specs.push_back({StringPrintf("a%zu", i), DataType::kString});
  }
  Table table{Schema(specs)};
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < n; ++i) {
    const std::string name = StringPrintf("a%zu", i);
    std::vector<std::vector<Value>> levels = {{Value("x"), Value("y")},
                                              {Value("*")}};
    for (const Value& v : levels[0]) table.mutable_dictionary(i).GetOrInsert(v);
    hierarchies.emplace_back(
        name, ValueHierarchy::Create(name, levels, {{0, 0}}).value());
  }
  table.AppendRowCodes(std::vector<int32_t>(n, 0));
  table.AppendRowCodes(std::vector<int32_t>(n, 1));
  RandomDataset out;
  out.qid = QuasiIdentifier::Create(table, std::move(hierarchies)).value();
  out.table = std::move(table);
  return out;
}

/// One equivalence class as the brute-force ℓ-diversity oracle sees it.
struct OracleClass {
  int64_t tuples = 0;
  std::set<int32_t> sensitive;  // the distinct sensitive codes
};

/// The brute-force distinct ℓ-diversity oracle, independent of every
/// frequency set: T's equivalence classes at `node`, keyed by their
/// generalized codes (read straight from the table columns through
/// BaseToLevelMap, so the map's order is the canonical order), each with
/// its tuple count and its set of sensitive codes.
inline std::map<std::vector<int32_t>, OracleClass> DiversityClassesByOracle(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    size_t sensitive_column) {
  std::map<std::vector<int32_t>, OracleClass> classes;
  const std::vector<int32_t>& sensitive = table.ColumnCodes(sensitive_column);
  std::vector<int32_t> codes(node.size());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < node.size(); ++i) {
      const size_t d = static_cast<size_t>(node.dims[i]);
      codes[i] = qid.hierarchy(d).BaseToLevelMap(
          static_cast<size_t>(node.levels[i]))[static_cast<size_t>(
          table.ColumnCodes(qid.column(d))[r])];
    }
    OracleClass& cls = classes[codes];
    ++cls.tuples;
    cls.sensitive.insert(sensitive[r]);
  }
  return classes;
}

/// The oracle's count of tuples in classes smaller than k or with fewer
/// than ℓ distinct sensitive values at `node`.
inline int64_t TuplesViolatingByOracle(const Table& table,
                                       const QuasiIdentifier& qid,
                                       const SubsetNode& node,
                                       size_t sensitive_column, int64_t k,
                                       int64_t l) {
  int64_t violating = 0;
  for (const auto& [codes, cls] :
       DiversityClassesByOracle(table, qid, node, sensitive_column)) {
    (void)codes;
    if (cls.tuples < k || static_cast<int64_t>(cls.sensitive.size()) < l) {
      violating += cls.tuples;
    }
  }
  return violating;
}

/// Every full-QID node at which T is distinct (k, ℓ)-diverse with at most
/// `max_suppressed` violating tuples, by the oracle.
inline std::set<std::string> DiverseNodesByOracle(
    const Table& table, const QuasiIdentifier& qid, size_t sensitive_column,
    int64_t k, int64_t l, int64_t max_suppressed) {
  std::set<std::string> out;
  GeneralizationLattice lattice(qid.MaxLevels());
  for (const LevelVector& v : lattice.AllNodesByHeight()) {
    SubsetNode node = SubsetNode::Full(v);
    if (TuplesViolatingByOracle(table, qid, node, sensitive_column, k, l) <=
        max_suppressed) {
      out.insert(node.ToString());
    }
  }
  return out;
}

/// Canonical comparable form of a node set.
inline std::set<std::string> NodeSet(const std::vector<SubsetNode>& nodes) {
  std::set<std::string> out;
  for (const SubsetNode& n : nodes) out.insert(n.ToString());
  return out;
}

/// One node's frequency set through FrequencySet::ComputeBatch's chunked,
/// pool-parallel path (the serial path when the pool has one worker).
inline FrequencySet PooledScan(const Table& table, const QuasiIdentifier& qid,
                               const SubsetNode& node, WorkerPool& pool,
                               ExecutionGovernor* governor = nullptr) {
  return std::move(
      FrequencySet::ComputeBatch(table, qid, {node}, &pool, governor).front());
}

/// Bit width of `node`'s key; over 64 means the vector-key fallback.
inline size_t KeyBits(const QuasiIdentifier& qid, const SubsetNode& node) {
  std::vector<size_t> cards;
  for (size_t i = 0; i < node.size(); ++i) {
    cards.push_back(qid.hierarchy(static_cast<size_t>(node.dims[i]))
                        .DomainSize(static_cast<size_t>(node.levels[i])));
  }
  return KeyCodec::Create(cards).total_bits();
}

/// A frequency set's groups as (codes, count), in the order ForEachGroup
/// visits them.
using CodeGroups = std::vector<std::pair<std::vector<int32_t>, int64_t>>;

/// Collects groups exactly as ForEachGroup visits them, so assertions can
/// check both contents and the canonical visiting order.
inline CodeGroups GroupsOf(const FrequencySet& fs) {
  CodeGroups out;
  const size_t width = fs.node().size();
  fs.ForEachGroup([&](const int32_t* codes, int64_t count) {
    out.emplace_back(std::vector<int32_t>(codes, codes + width), count);
  });
  return out;
}

/// Makes a full-QID SubsetNode from a level vector.
inline SubsetNode FullNode(std::vector<int32_t> levels) {
  return SubsetNode::Full(std::move(levels));
}

}  // namespace testing_util
}  // namespace incognito

#endif  // INCOGNITO_TESTS_TEST_UTIL_H_
