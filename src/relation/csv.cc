#include "relation/csv.h"

#include <cstring>
#include <deque>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "common/strings.h"
#include "robust/safe_io.h"

namespace incognito {
namespace {

/// Bytes the renderer gathers before it hands them on.
constexpr size_t kCsvChunkBytes = 64 << 10;

/// One field of a CSV record: a view into the input, or, for a quoted
/// field, into the record's unescape buffer.
struct Field {
  std::string_view text;
  bool unescaped = false;
};

/// Splits one CSV record into fields, honoring double-quote quoting: a
/// quote opens a quoted field only at the field's start, a doubled quote
/// inside one is a literal quote, and text after its closing quote is
/// kept. An unquoted field is a view into `line`; a quoted field is
/// unescaped into `unescaped`, whose capacity must cover the whole line so
/// that earlier views stay valid. Returns false on an unterminated quote.
bool SplitCsvLine(std::string_view line, char sep, std::vector<Field>* fields,
                  std::string* unescaped) {
  fields->clear();
  unescaped->clear();
  const size_t n = line.size();
  size_t i = 0;
  while (true) {
    if (i < n && line[i] == '"') {
      const size_t start = unescaped->size();
      bool in_quotes = true;
      for (++i; i < n; ++i) {
        const char ch = line[i];
        if (in_quotes) {
          if (ch == '"') {
            if (i + 1 < n && line[i + 1] == '"') {
              unescaped->push_back('"');
              ++i;
            } else {
              in_quotes = false;
            }
          } else {
            unescaped->push_back(ch);
          }
        } else if (ch == sep) {
          break;
        } else {
          unescaped->push_back(ch);
        }
      }
      if (in_quotes) return false;
      fields->push_back(
          {std::string_view(unescaped->data() + start,
                            unescaped->size() - start),
           true});
    } else {
      size_t stop = line.find(sep, i);
      if (stop == std::string_view::npos) stop = n;
      fields->push_back({line.substr(i, stop - i), false});
      i = stop;
    }
    if (i >= n) return true;
    ++i;  // the separator
  }
}

/// One column's distinct field texts, each with an id in first-seen order.
class TextInterner {
 public:
  /// Returns the id of `text`. `copy` says that `text` does not outlive
  /// the parse, so a new text is stored as a copy.
  int32_t Intern(std::string_view text, bool copy) {
    auto it = ids_.find(text);
    if (it != ids_.end()) return it->second;
    if (copy) text = owned_.emplace_back(text);
    const int32_t id = static_cast<int32_t>(texts_.size());
    texts_.push_back(text);
    ids_.emplace(text, id);
    return id;
  }

  const std::vector<std::string_view>& texts() const { return texts_; }

 private:
  std::vector<std::string_view> texts_;
  std::unordered_map<std::string_view, int32_t> ids_;
  std::deque<std::string> owned_;  // copies of unescaped texts; never move
};

/// Infers the narrowest type all of a column's texts satisfy. The answer
/// depends only on which texts occur, so each distinct text is tested once.
DataType InferColumnType(const std::vector<std::string_view>& texts) {
  bool all_int = true, all_double = true, any_value = false;
  for (std::string_view cell : texts) {
    if (cell.empty()) continue;  // NULL — compatible with every type.
    any_value = true;
    int64_t iv;
    double dv;
    if (!ParseInt64(cell, &iv)) all_int = false;
    if (!ParseDouble(cell, &dv)) all_double = false;
    if (!all_int && !all_double) break;
  }
  if (!any_value) return DataType::kString;
  if (all_int) return DataType::kInt64;
  if (all_double) return DataType::kDouble;
  return DataType::kString;
}

Value CellToValue(std::string_view cell, DataType type) {
  if (cell.empty()) return Value();
  switch (type) {
    case DataType::kInt64: {
      int64_t v = 0;
      ParseInt64(cell, &v);
      return Value(v);
    }
    case DataType::kDouble: {
      double v = 0;
      ParseDouble(cell, &v);
      return Value(v);
    }
    case DataType::kString:
      break;
  }
  return Value(std::string(cell));
}

std::string EscapeField(const std::string& field, char sep) {
  bool needs_quotes = field.find(sep) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Table> ParseCsv(const std::string& content,
                       const CsvReadOptions& options) {
  std::vector<std::string> header;
  std::vector<TextInterner> interners;
  // Per column, each row's text id; turned into codes in place below.
  std::vector<std::vector<int32_t>> columns;
  std::vector<Field> fields;
  std::string unescaped;
  size_t line_no = 0;
  size_t arity = 0;
  const char* next = content.data();
  const char* const end = next + content.size();
  while (next < end) {
    const char* newline = static_cast<const char*>(
        std::memchr(next, '\n', static_cast<size_t>(end - next)));
    const bool last = newline == nullptr;  // no newline ends the input
    std::string_view line(next,
                          static_cast<size_t>((last ? end : newline) - next));
    next = last ? end : newline + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() && last) break;
    if (options.max_row_bytes > 0 && line.size() > options.max_row_bytes) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu is %zu bytes, over the %zu-byte row limit", line_no,
          line.size(), options.max_row_bytes));
    }
    if (line.find('\0') != std::string_view::npos) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu contains an embedded NUL byte", line_no));
    }
    unescaped.reserve(line.size());
    if (!SplitCsvLine(line, options.separator, &fields, &unescaped)) {
      return Status::InvalidArgument(
          StringPrintf("unterminated quote on line %zu", line_no));
    }
    if (line_no == 1 && options.has_header) {
      for (const Field& field : fields) header.emplace_back(field.text);
      arity = header.size();
      continue;
    }
    if (arity == 0) arity = fields.size();
    if (fields.size() != arity) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu has %zu fields, expected %zu", line_no, fields.size(),
          arity));
    }
    if (columns.empty()) {
      interners.resize(arity);
      columns.resize(arity);
    }
    for (size_t c = 0; c < arity; ++c) {
      columns[c].push_back(
          interners[c].Intern(fields[c].text, fields[c].unescaped));
    }
  }
  if (arity == 0) return Status::InvalidArgument("empty CSV input");

  std::vector<ColumnSpec> specs(arity);
  std::vector<std::shared_ptr<Dictionary>> dictionaries(arity);
  columns.resize(arity);
  for (size_t c = 0; c < arity; ++c) {
    specs[c].name =
        options.has_header ? header[c] : StringPrintf("col%zu", c);
    dictionaries[c] = std::make_shared<Dictionary>();
    if (c >= interners.size()) continue;  // no data rows
    const std::vector<std::string_view>& texts = interners[c].texts();
    specs[c].type =
        options.infer_types ? InferColumnType(texts) : DataType::kString;
    // Values in first-seen text order give each value the code of its
    // first appearance, even where two texts parse to one value (" 5" and
    // "5").
    std::vector<int32_t> code_of_text(texts.size());
    for (size_t t = 0; t < texts.size(); ++t) {
      code_of_text[t] =
          dictionaries[c]->GetOrInsert(CellToValue(texts[t], specs[c].type));
    }
    for (int32_t& cell : columns[c]) {
      cell = code_of_text[static_cast<size_t>(cell)];
    }
  }
  return Table::FromColumns(Schema(std::move(specs)), std::move(dictionaries),
                            std::move(columns));
}

Result<Table> ReadCsv(const std::string& path, const CsvReadOptions& options) {
  Result<std::string> content = RetryWithBackoff(
      options.retry, [&] { return ReadFileToString(path, "csv.read"); });
  INCOGNITO_RETURN_IF_ERROR(content.status());
  return ParseCsv(content.value(), options);
}

void RenderCsv(const Table& table, char sep,
               const std::function<void(std::string_view)>& sink) {
  const size_t num_columns = table.num_columns();
  std::string out;
  out.reserve(kCsvChunkBytes);
  for (size_t c = 0; c < num_columns; ++c) {
    if (c > 0) out += sep;
    out += EscapeField(table.schema().column(c).name, sep);
  }
  out += '\n';
  // Per column, the escaped text of each dictionary entry.
  std::vector<std::vector<std::string>> text(num_columns);
  std::vector<const int32_t*> codes(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    const Dictionary& dictionary = table.dictionary(c);
    text[c].reserve(dictionary.size());
    for (size_t code = 0; code < dictionary.size(); ++code) {
      text[c].push_back(EscapeField(
          dictionary.value(static_cast<int32_t>(code)).ToString(), sep));
    }
    codes[c] = table.ColumnCodes(c).data();
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      if (c > 0) out += sep;
      out += text[c][static_cast<size_t>(codes[c][r])];
    }
    out += '\n';
    if (out.size() >= kCsvChunkBytes) {
      sink(out);
      out.clear();
    }
  }
  if (!out.empty()) sink(out);
}

std::string ToCsvString(const Table& table, char sep) {
  std::string out;
  RenderCsv(table, sep, [&out](std::string_view piece) { out += piece; });
  return out;
}

Status WriteCsv(const Table& table, const std::string& path, char sep) {
  return WriteFileAtomic(path, ToCsvString(table, sep), "csv.write");
}

}  // namespace incognito
