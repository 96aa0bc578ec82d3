#include <gtest/gtest.h>

#include <cstdio>

#include "data/patients.h"
#include "hierarchy/builders.h"
#include "hierarchy/csv_hierarchy.h"
#include "hierarchy/validation.h"
#include "test_util.h"

namespace incognito {
namespace {

Dictionary DictOf(const std::vector<Value>& values) {
  Dictionary d;
  for (const Value& v : values) d.GetOrInsert(v);
  return d;
}

TEST(CsvHierarchyTest, ParseBasic) {
  Dictionary d = DictOf({Value(int64_t{53715}), Value(int64_t{53710}),
                         Value(int64_t{53706}), Value(int64_t{53703})});
  const char* csv =
      "53715;5371*;537**\n"
      "53710;5371*;537**\n"
      "53706;5370*;537**\n"
      "53703;5370*;537**\n";
  Result<ValueHierarchy> h = ParseHierarchyCsv("Zipcode", csv, d);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->height(), 2u);
  EXPECT_EQ(h->DomainSize(1), 2u);
  EXPECT_EQ(h->LevelValue(1, h->Generalize(0, 1)), Value("5371*"));
  EXPECT_EQ(h->Generalize(0, 1), h->Generalize(1, 1));
  EXPECT_NE(h->Generalize(0, 1), h->Generalize(2, 1));
  EXPECT_TRUE(CheckWellFormed(h.value()).ok());
}

TEST(CsvHierarchyTest, ParseSkipsBlankLinesAndCr) {
  Dictionary d = DictOf({Value("a"), Value("b")});
  Result<ValueHierarchy> h =
      ParseHierarchyCsv("x", "a;*\r\n\nb;*\n", d);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->height(), 1u);
}

TEST(CsvHierarchyTest, ExtraLeavesIgnored) {
  Dictionary d = DictOf({Value("a")});
  Result<ValueHierarchy> h =
      ParseHierarchyCsv("x", "a;*\nnot-in-data;*\n", d);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->DomainSize(0), 1u);
}

TEST(CsvHierarchyTest, MissingLeafFails) {
  Dictionary d = DictOf({Value("a"), Value("b")});
  EXPECT_EQ(ParseHierarchyCsv("x", "a;*\n", d).status().code(),
            StatusCode::kNotFound);
}

TEST(CsvHierarchyTest, RaggedRowsFail) {
  Dictionary d = DictOf({Value("a"), Value("b")});
  EXPECT_FALSE(ParseHierarchyCsv("x", "a;g;*\nb;*\n", d).ok());
}

TEST(CsvHierarchyTest, SingleColumnRowFails) {
  Dictionary d = DictOf({Value("a")});
  EXPECT_FALSE(ParseHierarchyCsv("x", "a\n", d).ok());
}

TEST(CsvHierarchyTest, EmptyFails) {
  Dictionary d = DictOf({Value("a")});
  EXPECT_FALSE(ParseHierarchyCsv("x", "", d).ok());
}

TEST(CsvHierarchyTest, CustomSeparator) {
  Dictionary d = DictOf({Value("a"), Value("b")});
  Result<ValueHierarchy> h = ParseHierarchyCsv("x", "a,*\nb,*\n", d, ',');
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->DomainSize(1), 1u);
}

TEST(CsvHierarchyTest, RoundTripsBuilderHierarchies) {
  // Serialize each Patients hierarchy and parse it back: identical shape
  // and γ maps.
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  for (size_t i = 0; i < ds->qid.size(); ++i) {
    const ValueHierarchy& original = ds->qid.hierarchy(i);
    std::string csv = HierarchyToCsv(original);
    const Dictionary& dict = ds->table.dictionary(ds->qid.column(i));
    Result<ValueHierarchy> back =
        ParseHierarchyCsv(original.attribute_name(), csv, dict);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->height(), original.height());
    for (size_t level = 0; level <= original.height(); ++level) {
      ASSERT_EQ(back->DomainSize(level), original.DomainSize(level));
      for (size_t c = 0; c < original.DomainSize(0); ++c) {
        EXPECT_EQ(back->LevelValue(level, back->Generalize(
                                              static_cast<int32_t>(c), level))
                      .ToString(),
                  original
                      .LevelValue(level, original.Generalize(
                                             static_cast<int32_t>(c), level))
                      .ToString());
      }
    }
  }
}

TEST(CsvHierarchyTest, FileRoundTrip) {
  Dictionary d;
  for (int64_t v = 0; v <= 20; ++v) d.GetOrInsert(Value(v));
  Result<ValueHierarchy> h = BuildIntervalHierarchy("n", d, {5, 10});
  ASSERT_TRUE(h.ok());
  std::string path = testing_util::TempPath("incognito_hierarchy_test.csv");
  ASSERT_TRUE(WriteHierarchyCsv(h.value(), path).ok());
  Result<ValueHierarchy> back = ReadHierarchyCsv("n", path, d);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->height(), h->height());
  EXPECT_EQ(back->DomainSize(1), h->DomainSize(1));
  std::remove(path.c_str());
}

TEST(CsvHierarchyTest, ReadMissingFileFails) {
  Dictionary d = DictOf({Value("a")});
  EXPECT_EQ(ReadHierarchyCsv("x", "/no/such/file.csv", d).status().code(),
            StatusCode::kIOError);
}

std::string DataPath(const std::string& name) {
  return std::string(INCOGNITO_TEST_DATA_DIR) + "/" + name;
}

TEST(CsvHierarchyTest, EmbeddedNulByteIsRejected) {
  Dictionary d = DictOf({Value("v1")});
  Result<ValueHierarchy> h =
      ReadHierarchyCsv("x", DataPath("malformed_hierarchy_nul.csv"), d);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().message().find("NUL"), std::string::npos);
}

TEST(CsvHierarchyTest, SingleColumnRowIsRejected) {
  Dictionary d = DictOf({Value("v1")});
  Result<ValueHierarchy> h = ReadHierarchyCsv(
      "x", DataPath("malformed_hierarchy_one_col.csv"), d);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvHierarchyTest, OverlongRowIsRejected) {
  Dictionary d = DictOf({Value("v1")});
  std::string row = "v1;" + std::string((1 << 20) + 16, 'x') + "\n";
  Result<ValueHierarchy> h = ParseHierarchyCsv("x", row, d);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().message().find("row limit"), std::string::npos);
}

}  // namespace
}  // namespace incognito
