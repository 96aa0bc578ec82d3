#ifndef INCOGNITO_RELATION_CSV_H_
#define INCOGNITO_RELATION_CSV_H_

#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "relation/table.h"
#include "robust/retry.h"

namespace incognito {

/// Options controlling CSV import.
struct CsvReadOptions {
  /// Field separator.
  char separator = ',';
  /// If true, the first line is a header naming the columns.
  bool has_header = true;
  /// If true, attempt to parse each column as int64, then double, falling
  /// back to string (a column gets the narrowest type every row satisfies).
  bool infer_types = true;
  /// Rows longer than this many bytes are rejected with InvalidArgument
  /// (guards against pathological or corrupt input). 0 means unlimited.
  size_t max_row_bytes = 1 << 20;
  /// Retry policy for the file read (transient I/O errors only). Default
  /// RetryPolicy::None(): a failed open/read surfaces immediately, which
  /// the fault-injection CLI tests rely on. Opt in for flaky filesystems.
  RetryPolicy retry = RetryPolicy::None();
};

/// Reads a CSV file into a Table. Fields may be double-quoted; embedded
/// quotes are escaped by doubling (""). Records end at '\n' (a trailing
/// '\r' is dropped), also inside quotes, so a quoted newline is an
/// unterminated quote.
Result<Table> ReadCsv(const std::string& path,
                      const CsvReadOptions& options = {});

/// Parses CSV from an in-memory string (same semantics as ReadCsv). One
/// pass interns each column's field texts; a column's type is inferred
/// over its distinct texts, and its dictionary holds one value per distinct
/// text in first-seen order, so codes follow first appearance.
Result<Table> ParseCsv(const std::string& content,
                       const CsvReadOptions& options = {});

/// Writes a table to a CSV file with a header row. Values containing the
/// separator, quotes, or newlines are quoted.
Status WriteCsv(const Table& table, const std::string& path,
                char separator = ',');

/// Serializes a table to a CSV string (same semantics as WriteCsv).
std::string ToCsvString(const Table& table, char separator = ',');

/// The one CSV renderer behind ToCsvString and WriteCsv: a header row, then
/// one line per row, handed to `sink` in pieces of about 64 KiB. Each
/// dictionary entry is formatted and escaped once per column, and rows
/// are emitted by code.
void RenderCsv(const Table& table, char separator,
               const std::function<void(std::string_view)>& sink);

}  // namespace incognito

#endif  // INCOGNITO_RELATION_CSV_H_
