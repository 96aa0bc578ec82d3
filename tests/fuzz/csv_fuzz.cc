// libFuzzer harness for the CSV parser: any byte sequence must either
// parse into a table or come back as a clean InvalidArgument — never
// crash, leak, or trip a sanitizer — and must parse exactly as the
// row-by-row reader in tests/test_util.h does. Build with
// -DINCOGNITO_FUZZERS=ON (see tests/fuzz/CMakeLists.txt for the smoke-run
// recipe).

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "relation/csv.h"
#include "test_util.h"

namespace {

/// Parses `content` both ways; a difference is a crash.
incognito::Result<incognito::Table> ParseBothWays(
    const std::string& content, const incognito::CsvReadOptions& options) {
  incognito::Result<incognito::Table> parsed =
      incognito::ParseCsv(content, options);
  if (!incognito::testing_util::ParseDifference(
           parsed,
           incognito::testing_util::ParseCsvByRows(content, options))
           .empty()) {
    std::abort();
  }
  return parsed;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string content(reinterpret_cast<const char*>(data), size);

  // Default options (header + type inference).
  incognito::Result<incognito::Table> t1 = ParseBothWays(content, {});
  if (t1.ok()) {
    // A parsed table must round-trip through the writer without error.
    (void)incognito::ToCsvString(t1.value());
  }

  // Headerless, string-typed, with a tight row limit to exercise the
  // max-row-bytes guard.
  incognito::CsvReadOptions opts;
  opts.has_header = false;
  opts.infer_types = false;
  opts.max_row_bytes = 256;
  (void)ParseBothWays(content, opts);
  return 0;
}
