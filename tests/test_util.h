#ifndef INCOGNITO_TESTS_TEST_UTIL_H_
#define INCOGNITO_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/quasi_identifier.h"
#include "core/worker_pool.h"
#include "freq/frequency_set.h"
#include "hierarchy/hierarchy.h"
#include "lattice/candidate_gen.h"
#include "lattice/graph_tables.h"
#include "lattice/lattice.h"
#include "lattice/node.h"
#include "relation/csv.h"
#include "relation/table.h"

namespace incognito {
namespace testing_util {

/// A path under the test temp directory whose file name carries this
/// process's id, so two test binaries running at once (say a sanitizer
/// tree's beside the default tree's) never write or delete one file.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

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

/// The first-iteration candidate graph (C1, E1) of paper Fig. 8: every
/// domain of every attribute's hierarchy as a node, each hierarchy's chain
/// as edges.
inline CandidateGraph MakeSingleAttributeGraph(const QuasiIdentifier& qid) {
  CandidateGraph graph;
  for (size_t d = 0; d < qid.size(); ++d) {
    const auto height = static_cast<int32_t>(qid.hierarchy(d).height());
    for (int32_t level = 0; level <= height; ++level) {
      NodeRow row;
      row.pairs = {{static_cast<int32_t>(d), level}};
      const int64_t id = graph.AddNode(std::move(row));
      if (level > 0) graph.AddEdge(id - 1, id);
    }
  }
  graph.BuildAdjacency();
  return graph;
}

/// The level-wise GraphGeneration of paper §3.1.2 over the whole survivor
/// graph S_i (every i-attribute subset at once), transcribed from its
/// three statements over std::set; the oracle the search's per-subset
/// GenerateSubsetGraph is checked against. `stats` counts as the search's
/// generator does.
///   Join:  C_{i+1} = { p ++ q.last : p, q in S_i agree on their first
///          i-1 pairs and p.last.dim < q.last.dim }, parents (p, q).
///   Prune: drop every candidate with an i-subset of its pairs not in S_i.
///   Edges: (p, q) when E_i links p.parent1 → q.parent1 and p.parent2 →
///          q.parent2, or one of them while the other parents are equal;
///          EXCEPT every (a, c) with candidate edges (a, b) and (b, c).
inline CandidateGraph GenerateNextGraph(const CandidateGraph& survivors,
                                        GraphGenStats* stats = nullptr) {
  GraphGenStats local;
  std::vector<NodeRow> joined;
  for (const NodeRow& p : survivors.nodes()) {
    for (const NodeRow& q : survivors.nodes()) {
      if (p.pairs.size() != q.pairs.size() ||
          !std::equal(p.pairs.begin(), p.pairs.end() - 1, q.pairs.begin()) ||
          p.pairs.back().dim >= q.pairs.back().dim) {
        continue;
      }
      NodeRow cand;
      cand.pairs = p.pairs;
      cand.pairs.push_back(q.pairs.back());
      cand.parent1 = p.id;
      cand.parent2 = q.id;
      joined.push_back(std::move(cand));
    }
  }
  local.joined = joined.size();

  std::set<std::vector<DimIndexPair>> s_i;
  for (const NodeRow& row : survivors.nodes()) s_i.insert(row.pairs);
  CandidateGraph next;
  for (const NodeRow& cand : joined) {
    bool keep = true;
    for (size_t drop = 0; keep && drop < cand.pairs.size(); ++drop) {
      std::vector<DimIndexPair> subset = cand.pairs;
      subset.erase(subset.begin() + static_cast<std::ptrdiff_t>(drop));
      keep = s_i.count(subset) > 0;
    }
    if (keep) {
      next.AddNode(cand);
    } else {
      ++local.pruned;
    }
  }

  const std::set<std::pair<int64_t, int64_t>> e_i(survivors.edges().begin(),
                                                  survivors.edges().end());
  std::set<std::pair<int64_t, int64_t>> candidate_edges;
  for (const NodeRow& p : next.nodes()) {
    for (const NodeRow& q : next.nodes()) {
      const bool up1 = e_i.count({p.parent1, q.parent1}) > 0;
      const bool up2 = e_i.count({p.parent2, q.parent2}) > 0;
      if ((up1 && up2) || (up1 && p.parent2 == q.parent2) ||
          (up2 && p.parent1 == q.parent1)) {
        candidate_edges.insert({p.id, q.id});
      }
    }
  }
  local.candidate_edges = candidate_edges.size();
  std::set<std::pair<int64_t, int64_t>> implied;
  for (const auto& [start, mid] : candidate_edges) {
    for (const auto& [mid_start, end] : candidate_edges) {
      if (mid_start == mid) implied.insert({start, end});
    }
  }
  for (const auto& [start, end] : candidate_edges) {
    if (implied.count({start, end}) > 0) {
      ++local.implied_removed;
    } else {
      next.AddEdge(start, end);
    }
  }
  next.BuildAdjacency();
  if (stats != nullptr) *stats = local;
  return next;
}

/// Canonical comparable form of a node set.
inline std::set<std::string> NodeSet(const std::vector<SubsetNode>& nodes) {
  std::set<std::string> out;
  for (const SubsetNode& n : nodes) out.insert(n.ToString());
  return out;
}

/// One node's frequency set through FrequencySet::ComputeBatch, in one row
/// chunk per worker of `pool` (one chunk, inline, for a 1-worker pool).
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

/// The row-by-row CSV reader that ParseCsv replaced, kept as its oracle:
/// std::getline splits records, each cell is kept as a string, a column's
/// type is inferred over every cell, and rows go in through AppendRow.
/// ParseCsv must return the same schema, dictionaries and codes, or the
/// same status and message.
inline bool SplitCsvLineByChars(const std::string& line, char sep,
                                std::vector<std::string>* fields) {
  fields->clear();
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += ch;
      }
    } else if (ch == '"' && cur.empty()) {
      in_quotes = true;
    } else if (ch == sep) {
      fields->push_back(std::move(cur));
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (in_quotes) return false;
  fields->push_back(std::move(cur));
  return true;
}

inline Result<Table> ParseCsvByRows(const std::string& content,
                                    const CsvReadOptions& options = {}) {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(content);
  std::string line;
  size_t line_no = 0;
  size_t arity = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() && in.eof()) break;
    if (options.max_row_bytes > 0 && line.size() > options.max_row_bytes) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu is %zu bytes, over the %zu-byte row limit", line_no,
          line.size(), options.max_row_bytes));
    }
    if (line.find('\0') != std::string::npos) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu contains an embedded NUL byte", line_no));
    }
    std::vector<std::string> fields;
    if (!SplitCsvLineByChars(line, options.separator, &fields)) {
      return Status::InvalidArgument(
          StringPrintf("unterminated quote on line %zu", line_no));
    }
    if (line_no == 1 && options.has_header) {
      header = std::move(fields);
      arity = header.size();
      continue;
    }
    if (arity == 0) arity = fields.size();
    if (fields.size() != arity) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu has %zu fields, expected %zu", line_no, fields.size(),
          arity));
    }
    rows.push_back(std::move(fields));
  }
  if (arity == 0) return Status::InvalidArgument("empty CSV input");

  std::vector<ColumnSpec> specs;
  for (size_t c = 0; c < arity; ++c) {
    ColumnSpec spec;
    spec.name = options.has_header ? header[c] : StringPrintf("col%zu", c);
    spec.type = DataType::kString;
    if (options.infer_types && !rows.empty()) {
      bool all_int = true, all_double = true, any_value = false;
      for (const auto& row : rows) {
        if (row[c].empty()) continue;
        any_value = true;
        int64_t iv;
        double dv;
        if (!ParseInt64(row[c], &iv)) all_int = false;
        if (!ParseDouble(row[c], &dv)) all_double = false;
      }
      if (any_value && all_int) spec.type = DataType::kInt64;
      else if (any_value && all_double) spec.type = DataType::kDouble;
    }
    specs.push_back(std::move(spec));
  }
  Table table{Schema(std::move(specs))};
  std::vector<Value> row_values(arity);
  for (const auto& row : rows) {
    for (size_t c = 0; c < arity; ++c) {
      const std::string& cell = row[c];
      const DataType type = table.schema().column(c).type;
      int64_t iv = 0;
      double dv = 0;
      if (cell.empty()) {
        row_values[c] = Value();
      } else if (type == DataType::kInt64 && ParseInt64(cell, &iv)) {
        row_values[c] = Value(iv);
      } else if (type == DataType::kDouble && ParseDouble(cell, &dv)) {
        row_values[c] = Value(dv);
      } else {
        row_values[c] = Value(cell);
      }
    }
    INCOGNITO_RETURN_IF_ERROR(table.AppendRow(row_values));
  }
  return table;
}

/// Empty when two parses agree — the same schema, dictionary values (with
/// their types, so 1 and 1.0 differ) and codes, or the same failure status
/// and message — and otherwise the first difference.
inline std::string ParseDifference(const Result<Table>& a,
                                   const Result<Table>& b) {
  if (!a.ok() || !b.ok()) {
    if (a.ok() != b.ok() || a.status().code() != b.status().code() ||
        a.status().message() != b.status().message()) {
      return "status " + a.status().ToString() + " vs " +
             b.status().ToString();
    }
    return "";
  }
  if (a->schema().ToString() != b->schema().ToString()) {
    return "schema " + a->schema().ToString() + " vs " +
           b->schema().ToString();
  }
  if (a->num_rows() != b->num_rows()) return "row count";
  auto typed = [](const Value& v) {
    const char* type = v.is_null()     ? "null"
                       : v.is_int64()  ? "int64"
                       : v.is_double() ? "double"
                                       : "string";
    return std::string(type) + ":" + v.ToString();
  };
  for (size_t c = 0; c < a->num_columns(); ++c) {
    const Dictionary& da = a->dictionary(c);
    const Dictionary& db = b->dictionary(c);
    if (da.size() != db.size()) {
      return StringPrintf("column %zu dictionary size %zu vs %zu", c,
                          da.size(), db.size());
    }
    for (int32_t code = 0; code < static_cast<int32_t>(da.size()); ++code) {
      if (typed(da.value(code)) != typed(db.value(code))) {
        return StringPrintf("column %zu code %d: ", c, code) +
               typed(da.value(code)) + " vs " + typed(db.value(code));
      }
    }
    if (a->ColumnCodes(c) != b->ColumnCodes(c)) {
      return StringPrintf("column %zu codes", c);
    }
  }
  return "";
}

/// Makes a full-QID SubsetNode from a level vector.
inline SubsetNode FullNode(std::vector<int32_t> levels) {
  return SubsetNode::Full(std::move(levels));
}

}  // namespace testing_util
}  // namespace incognito

#endif  // INCOGNITO_TESTS_TEST_UTIL_H_
