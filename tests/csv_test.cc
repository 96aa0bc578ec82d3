#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "relation/csv.h"
#include "test_util.h"

namespace incognito {
namespace {

TEST(CsvTest, ParseSimpleWithHeader) {
  Result<Table> t = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->schema().column(0).name, "a");
  EXPECT_EQ(t->schema().column(0).type, DataType::kInt64);
  EXPECT_EQ(t->schema().column(1).type, DataType::kString);
  EXPECT_EQ(t->GetValue(1, 0), Value(int64_t{2}));
  EXPECT_EQ(t->GetValue(0, 1), Value("x"));
}

TEST(CsvTest, TypeInferenceDoubleAndFallback) {
  Result<Table> t = ParseCsv("a,b,c\n1.5,1,1\n2,x,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().column(0).type, DataType::kDouble);
  EXPECT_EQ(t->schema().column(1).type, DataType::kString);
  EXPECT_EQ(t->schema().column(2).type, DataType::kInt64);
}

TEST(CsvTest, NoHeaderNamesColumns) {
  CsvReadOptions opts;
  opts.has_header = false;
  Result<Table> t = ParseCsv("1,2\n3,4\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().column(0).name, "col0");
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvTest, QuotedFields) {
  Result<Table> t = ParseCsv("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 0), Value("x,y"));
  EXPECT_EQ(t->GetValue(0, 1), Value("he said \"hi\""));
}

TEST(CsvTest, EmptyFieldIsNull) {
  Result<Table> t = ParseCsv("a,b\n1,\n2,z\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->GetValue(0, 1).is_null());
  EXPECT_EQ(t->GetValue(1, 1), Value("z"));
}

TEST(CsvTest, ArityMismatchFails) {
  Result<Table> t = ParseCsv("a,b\n1,2\n3\n");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, UnterminatedQuoteFails) {
  Result<Table> t = ParseCsv("a\n\"oops\n");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, EmptyInputFails) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, CrLfLineEndings) {
  Result<Table> t = ParseCsv("a,b\r\n1,x\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 1), Value("x"));
}

TEST(CsvTest, CustomSeparator) {
  CsvReadOptions opts;
  opts.separator = ';';
  Result<Table> t = ParseCsv("a;b\n1;2\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 1), Value(int64_t{2}));
}

TEST(CsvTest, DisableTypeInference) {
  CsvReadOptions opts;
  opts.infer_types = false;
  Result<Table> t = ParseCsv("a\n123\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().column(0).type, DataType::kString);
  EXPECT_EQ(t->GetValue(0, 0), Value("123"));
}

TEST(CsvTest, RoundTripThroughString) {
  Result<Table> t = ParseCsv("name,n\n\"a,b\",1\nplain,2\n");
  ASSERT_TRUE(t.ok());
  std::string serialized = ToCsvString(t.value());
  Result<Table> back = ParseCsv(serialized);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(t->MultisetEquals(back.value()));
}

TEST(CsvTest, RoundTripThroughFile) {
  Result<Table> t = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(t.ok());
  std::string path = testing_util::TempPath("incognito_csv_test.csv");
  ASSERT_TRUE(WriteCsv(t.value(), path).ok());
  Result<Table> back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(t->MultisetEquals(back.value()));
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadCsv("/nonexistent/dir/x.csv").status().code(),
            StatusCode::kIOError);
}

std::string DataPath(const std::string& name) {
  return std::string(INCOGNITO_TEST_DATA_DIR) + "/" + name;
}

TEST(CsvTest, CrlfLineEndingsAreStripped) {
  Result<Table> t = ReadCsv(DataPath("crlf_rows.csv"));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 1), Value("x"));  // no trailing \r in the cell
}

TEST(CsvTest, EmbeddedNulByteIsRejected) {
  Result<Table> t = ReadCsv(DataPath("malformed_nul.csv"));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("NUL"), std::string::npos);
}

TEST(CsvTest, UnterminatedQuoteIsRejected) {
  Result<Table> t = ReadCsv(DataPath("malformed_unterminated.csv"));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("unterminated"), std::string::npos);
}

TEST(CsvTest, RaggedRowIsRejected) {
  Result<Table> t = ReadCsv(DataPath("malformed_ragged.csv"));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RowOverMaxRowBytesIsRejected) {
  CsvReadOptions opts;
  opts.max_row_bytes = 1024;  // the fixture's data row is ~2 KiB
  Result<Table> t = ReadCsv(DataPath("malformed_long_row.csv"), opts);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("row limit"), std::string::npos);
  // The default limit (1 MiB) accepts the same file.
  EXPECT_TRUE(ReadCsv(DataPath("malformed_long_row.csv")).ok());
  // max_row_bytes = 0 disables the guard entirely.
  opts.max_row_bytes = 0;
  EXPECT_TRUE(ReadCsv(DataPath("malformed_long_row.csv"), opts).ok());
}

// ---------------------------------------------------------------------------
// ParseCsv against the row-by-row reader it replaced
// (testing_util::ParseCsvByRows): the same schema, dictionaries and codes,
// or the same status and message.
// ---------------------------------------------------------------------------

/// Returns whether the row reader accepted `content`.
bool ExpectSameAsRowReader(const std::string& content,
                           const CsvReadOptions& options,
                           const std::string& what) {
  Result<Table> oracle = testing_util::ParseCsvByRows(content, options);
  EXPECT_EQ(testing_util::ParseDifference(ParseCsv(content, options), oracle),
            "")
      << what;
  return oracle.ok();
}

std::vector<CsvReadOptions> ReaderOptionSets() {
  std::vector<CsvReadOptions> sets(4);
  sets[1].has_header = false;
  sets[2].infer_types = false;
  sets[3].has_header = false;
  sets[3].infer_types = false;
  sets[3].max_row_bytes = 24;
  return sets;
}

TEST(CsvReaderOracleTest, EveryFixtureParsesLikeTheRowReader) {
  size_t fixtures = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(INCOGNITO_TEST_DATA_DIR)) {
    if (entry.path().extension() != ".csv") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream content;
    content << in.rdbuf();
    ++fixtures;
    for (const CsvReadOptions& options : ReaderOptionSets()) {
      ExpectSameAsRowReader(content.str(), options, entry.path().string());
    }
  }
  EXPECT_GE(fixtures, 8u);
}

TEST(CsvReaderOracleTest, EdgeCasesParseLikeTheRowReader) {
  using namespace std::string_literals;
  const std::vector<std::string> cases = {
      "",
      "\n",
      "\r",
      "a,b\n\r",
      "a,b\n1,2\n\r\r",
      "a,b\n1,2",
      "a,b\n1,2\r",
      "a,b\n\n1,2\n",
      "a\n\n\n",
      "a\n1\n\n",
      "a,b\n\"x\ny\",1\n",
      "a,b\n\"\",\"\"\"\"\n",
      "a,b\n\"q\"tail,x\"y\"\n",
      "a,b\n\"\"\"\n",
      "a,b\n\"\"x,\"\"\"a\"\n",
      "a,b\n01,1\n1, 1\n 1,01\n",
      "a,b\n5, 5\n 5,5\n",
      "a\n1\n1.0\n1e0\n",
      "a\n1\n\"1\"\n",
      "a,b\n1,\n,2.5\n,\n",
      "a,b\n  ,1\n",
      "a,b,c\n1,2\n",
      "a,b\n1,2,3\n",
      "a\nx\0y\n"s,
      "h\n99999999999999999999\n1\n",
      "h\nnan\ninf\n",
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    for (const CsvReadOptions& options : ReaderOptionSets()) {
      ExpectSameAsRowReader(cases[i], options, "case " + std::to_string(i));
    }
  }
}

TEST(CsvReaderOracleTest, SeededRandomCsvsParseLikeTheRowReader) {
  // Tokens chosen to collide under parsing: "01", "1" and " 1" are one
  // integer; quoted and unquoted texts of one value; ints mixed with
  // doubles; NULLs; separators, quotes and CR inside fields.
  const std::vector<std::string> tokens = {
      "1",      "01",     " 1",      "1 ",    "2",      "-3",   "1.5",
      "2.0",    "1e3",    "",        "x",     "x y",    "\"1\"", "\"01\"",
      "\"a,b\"", "\"\"",   "\"q\"\"q\"", "a\"b",  "\"x\"y", "\r",  " ",
      "\"",     "z;w",    "\"z;w\"",  "NULL",  "9223372036854775807"};
  Rng rng(20251019);
  int accepted = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    const char sep = trial % 5 == 4 ? ';' : ',';
    const size_t cols = 1 + rng.Uniform(4);
    const size_t lines = rng.Uniform(12);
    // Narrow vocabularies make typed columns likely.
    const size_t vocab = 2 + rng.Uniform(tokens.size() - 1);
    std::string content;
    for (size_t l = 0; l < lines; ++l) {
      const size_t fields = rng.Uniform(10) == 0 ? cols + 1 : cols;
      if (rng.Uniform(15) == 0) {
        content += l + 1 == lines && rng.Uniform(2) == 0 ? "\r" : "";
      } else {
        for (size_t f = 0; f < fields; ++f) {
          if (f > 0) content += sep;
          std::string token = tokens[rng.Uniform(vocab)];
          for (char& ch : token) {
            if (ch == ';' && sep == ',') ch = ',';
          }
          content += token;
        }
      }
      if (l + 1 < lines || rng.Uniform(2) == 0) {
        content += rng.Uniform(4) == 0 ? "\r\n" : "\n";
      }
    }
    CsvReadOptions options;
    options.separator = sep;
    options.has_header = rng.Uniform(3) != 0;
    options.infer_types = rng.Uniform(4) != 0;
    if (rng.Uniform(8) == 0) options.max_row_bytes = 1 + rng.Uniform(16);
    accepted += ExpectSameAsRowReader(
        content, options, "trial " + std::to_string(trial) + ": " + content);
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, kTrials / 4);
  EXPECT_LT(accepted, kTrials * 9 / 10);
}

TEST(CsvRendererTest, ChunkedRenderEqualsOneString) {
  // More than one 64 KiB piece, with values that need quoting.
  std::string content = "k,v\n";
  for (int r = 0; r < 6000; ++r) {
    content += std::to_string(r % 97) + ",\"v,\"\"" + std::to_string(r) +
               "\"\n";
  }
  Result<Table> t = ParseCsv(content);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::string pieces;
  size_t calls = 0;
  RenderCsv(t.value(), ',', [&](std::string_view piece) {
    pieces += piece;
    ++calls;
  });
  EXPECT_GT(calls, 1u);
  EXPECT_EQ(pieces, content);
  EXPECT_EQ(ToCsvString(t.value()), content);
}

}  // namespace
}  // namespace incognito
