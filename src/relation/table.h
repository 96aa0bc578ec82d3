#ifndef INCOGNITO_RELATION_TABLE_H_
#define INCOGNITO_RELATION_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/dictionary.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace incognito {

/// An in-memory, columnar, dictionary-encoded relation.
///
/// This is the substrate the paper's algorithms run on: the microdata table
/// T, the frequency-set temp tables, and the anonymized views are all Tables.
/// Each column stores dense int32 codes; per-column dictionaries own the
/// distinct values. A Table is a multiset of tuples — duplicate rows are
/// allowed and significant (k-anonymity is defined over tuple counts).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// Assembles a table from one dictionary and one code column per schema
  /// column. Every column must have the same length and hold codes valid
  /// in its dictionary; a dictionary may be shared with other tables.
  static Table FromColumns(
      Schema schema, std::vector<std::shared_ptr<Dictionary>> dictionaries,
      std::vector<std::vector<int32_t>> columns);

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Appends a row of values; fails if the arity does not match the schema
  /// or a value's type does not match its column (NULLs are always allowed).
  Status AppendRow(const std::vector<Value>& row);

  /// Appends a row of pre-encoded codes. The caller is responsible for the
  /// codes being valid w.r.t. the column dictionaries.
  void AppendRowCodes(const std::vector<int32_t>& codes);

  /// Decoded cell access.
  const Value& GetValue(size_t row, size_t col) const {
    return dictionaries_[col]->value(columns_[col][row]);
  }

  /// Encoded cell access.
  int32_t GetCode(size_t row, size_t col) const { return columns_[col][row]; }

  /// Whole encoded column (hot path for group-by scans).
  const std::vector<int32_t>& ColumnCodes(size_t col) const {
    return columns_[col];
  }

  /// The dictionary of a column.
  const Dictionary& dictionary(size_t col) const { return *dictionaries_[col]; }
  Dictionary& mutable_dictionary(size_t col) { return *dictionaries_[col]; }

  /// The shared handle of a column's dictionary, for a derived table that
  /// keeps the column's codes.
  const std::shared_ptr<Dictionary>& shared_dictionary(size_t col) const {
    return dictionaries_[col];
  }

  /// Returns a decoded row.
  std::vector<Value> GetRow(size_t row) const;

  /// Returns a new table with only the given columns, in the given order.
  Result<Table> Project(const std::vector<size_t>& cols) const;

  /// Returns a new table with only the rows for which keep[row] is true.
  /// Requires keep.size() == num_rows().
  Table FilterRows(const std::vector<bool>& keep) const;

  /// Multiset equality: same schema and same bag of decoded tuples
  /// (independent of row order and dictionary code assignment).
  bool MultisetEquals(const Table& other) const;

  /// Pretty-prints up to `max_rows` rows (all if 0) for diagnostics.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  // Shared dictionaries make projections cheap and keep codes stable across
  // derived tables.
  std::vector<std::shared_ptr<Dictionary>> dictionaries_;
  std::vector<std::vector<int32_t>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace incognito

#endif  // INCOGNITO_RELATION_TABLE_H_
