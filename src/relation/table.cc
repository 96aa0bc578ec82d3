#include "relation/table.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/strings.h"

namespace incognito {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  dictionaries_.reserve(schema_.num_columns());
  columns_.resize(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    dictionaries_.push_back(std::make_shared<Dictionary>());
  }
}

Table Table::FromColumns(Schema schema,
                         std::vector<std::shared_ptr<Dictionary>> dictionaries,
                         std::vector<std::vector<int32_t>> columns) {
  assert(dictionaries.size() == schema.num_columns() &&
         columns.size() == schema.num_columns());
  Table out;
  out.schema_ = std::move(schema);
  out.dictionaries_ = std::move(dictionaries);
  out.columns_ = std::move(columns);
  out.num_rows_ = out.columns_.empty() ? 0 : out.columns_[0].size();
  return out;
}

namespace {

bool TypeMatches(const Value& v, DataType type) {
  if (v.is_null()) return true;
  switch (type) {
    case DataType::kInt64:
      return v.is_int64();
    case DataType::kDouble:
      return v.is_double() || v.is_int64();
    case DataType::kString:
      return v.is_string();
  }
  return false;
}

}  // namespace

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(StringPrintf(
        "row arity %zu does not match schema arity %zu", row.size(),
        schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!TypeMatches(row[i], schema_.column(i).type)) {
      return Status::InvalidArgument(
          "value for column '" + schema_.column(i).name + "' has wrong type");
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].push_back(dictionaries_[i]->GetOrInsert(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

void Table::AppendRowCodes(const std::vector<int32_t>& codes) {
  assert(codes.size() == schema_.num_columns());
  for (size_t i = 0; i < codes.size(); ++i) {
    assert(codes[i] >= 0 &&
           static_cast<size_t>(codes[i]) < dictionaries_[i]->size());
    columns_[i].push_back(codes[i]);
  }
  ++num_rows_;
}

std::vector<Value> Table::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) out.push_back(GetValue(row, c));
  return out;
}

Result<Table> Table::Project(const std::vector<size_t>& cols) const {
  std::vector<ColumnSpec> specs;
  specs.reserve(cols.size());
  for (size_t c : cols) {
    if (c >= num_columns()) {
      return Status::OutOfRange(
          StringPrintf("column index %zu out of range (table has %zu)", c,
                       num_columns()));
    }
    specs.push_back(schema_.column(c));
  }
  Table out{Schema(std::move(specs))};
  // Share dictionaries and copy code columns directly.
  for (size_t i = 0; i < cols.size(); ++i) {
    out.dictionaries_[i] = dictionaries_[cols[i]];
    out.columns_[i] = columns_[cols[i]];
  }
  out.num_rows_ = num_rows_;
  return out;
}

Table Table::FilterRows(const std::vector<bool>& keep) const {
  assert(keep.size() == num_rows_);
  Table out;
  out.schema_ = schema_;
  out.dictionaries_ = dictionaries_;
  out.columns_.resize(num_columns());
  size_t kept = static_cast<size_t>(
      std::count(keep.begin(), keep.end(), true));
  for (size_t c = 0; c < num_columns(); ++c) {
    out.columns_[c].reserve(kept);
    for (size_t r = 0; r < num_rows_; ++r) {
      if (keep[r]) out.columns_[c].push_back(columns_[c][r]);
    }
  }
  out.num_rows_ = kept;
  return out;
}

bool Table::MultisetEquals(const Table& other) const {
  if (!(schema_ == other.schema_) || num_rows_ != other.num_rows_) {
    return false;
  }
  // Decode rows to canonical strings and compare multisets. This is a slow
  // path used by tests; correctness over speed.
  auto canonical = [](const Table& t) {
    std::map<std::string, size_t> counts;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::string key;
      for (size_t c = 0; c < t.num_columns(); ++c) {
        key += t.GetValue(r, c).ToString();
        key += '\x1f';
      }
      ++counts[key];
    }
    return counts;
  };
  return canonical(*this) == canonical(other);
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString() + "\n";
  size_t limit = max_rows == 0 ? num_rows_ : std::min(max_rows, num_rows_);
  for (size_t r = 0; r < limit; ++r) {
    std::vector<std::string> cells;
    cells.reserve(num_columns());
    for (size_t c = 0; c < num_columns(); ++c) {
      cells.push_back(GetValue(r, c).ToString());
    }
    out += Join(cells, " | ");
    out += '\n';
  }
  if (limit < num_rows_) {
    out += StringPrintf("... (%zu more rows)\n", num_rows_ - limit);
  }
  return out;
}

}  // namespace incognito
