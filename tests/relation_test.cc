#include <gtest/gtest.h>

#include "relation/dictionary.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "relation/value.h"
#include "relation/view.h"

namespace incognito {
namespace {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "");
  EXPECT_EQ(v, Value());
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{5}).int64(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).dbl(), 2.5);
  EXPECT_EQ(Value("abc").str(), "abc");
  EXPECT_EQ(Value(std::string("xy")).str(), "xy");
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(2.0).ToString(), "2.0");
  EXPECT_EQ(Value(1.25).ToString(), "1.25");
}

TEST(ValueTest, EqualityAcrossTypes) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_EQ(Value(1.0), Value(int64_t{1}));  // mixed numeric
  EXPECT_FALSE(Value(int64_t{1}) == Value("1"));
  EXPECT_FALSE(Value() == Value(int64_t{0}));
}

TEST(ValueTest, OrderingNullNumericString) {
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{5}), Value("a"));
  EXPECT_LT(Value(int64_t{2}), Value(int64_t{3}));
  EXPECT_LT(Value(2.5), Value(int64_t{3}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_FALSE(Value() < Value());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(7.0).Hash());
  EXPECT_EQ(Value("s").Hash(), Value(std::string("s")).Hash());
  EXPECT_EQ(Value().Hash(), Value().Hash());
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, FindColumn) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.FindColumn("a"), 0);
  EXPECT_EQ(s.FindColumn("b"), 1);
  EXPECT_EQ(s.FindColumn("c"), -1);
}

TEST(SchemaTest, ColumnIndexStatus) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_TRUE(s.ColumnIndex("a").ok());
  EXPECT_EQ(s.ColumnIndex("a").value(), 0u);
  EXPECT_EQ(s.ColumnIndex("zz").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, AddColumnRejectsDuplicates) {
  Schema s;
  EXPECT_TRUE(s.AddColumn({"a", DataType::kInt64}).ok());
  Status dup = s.AddColumn({"a", DataType::kString});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(s.num_columns(), 1u);
}

TEST(SchemaTest, ToString) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(s.ToString(), "a:int64, b:string");
}

// ---------------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------------

TEST(DictionaryTest, GetOrInsertAssignsDenseCodes) {
  Dictionary d;
  EXPECT_EQ(d.GetOrInsert(Value("x")), 0);
  EXPECT_EQ(d.GetOrInsert(Value("y")), 1);
  EXPECT_EQ(d.GetOrInsert(Value("x")), 0);  // existing
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.value(1), Value("y"));
}

TEST(DictionaryTest, FindMissingReturnsMinusOne) {
  Dictionary d;
  d.GetOrInsert(Value("x"));
  EXPECT_EQ(d.Find(Value("x")), 0);
  EXPECT_EQ(d.Find(Value("nope")), -1);
}

TEST(DictionaryTest, SortedCodesOrdersValues) {
  Dictionary d;
  d.GetOrInsert(Value(int64_t{30}));
  d.GetOrInsert(Value(int64_t{10}));
  d.GetOrInsert(Value(int64_t{20}));
  std::vector<int32_t> sorted = d.SortedCodes();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(d.value(sorted[0]).int64(), 10);
  EXPECT_EQ(d.value(sorted[1]).int64(), 20);
  EXPECT_EQ(d.value(sorted[2]).int64(), 30);
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

Table MakeSmallTable() {
  Table t{Schema({{"city", DataType::kString}, {"pop", DataType::kInt64}})};
  EXPECT_TRUE(t.AppendRow({Value("madison"), Value(int64_t{250})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("verona"), Value(int64_t{12})}).ok());
  EXPECT_TRUE(t.AppendRow({Value("madison"), Value(int64_t{250})}).ok());
  return t;
}

TEST(TableTest, AppendAndRead) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.GetValue(0, 0), Value("madison"));
  EXPECT_EQ(t.GetValue(1, 1), Value(int64_t{12}));
  // Duplicate rows share codes.
  EXPECT_EQ(t.GetCode(0, 0), t.GetCode(2, 0));
}

TEST(TableTest, AppendRowArityMismatch) {
  Table t{Schema({{"a", DataType::kInt64}})};
  Status s = t.AppendRow({Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, AppendRowTypeMismatch) {
  Table t{Schema({{"a", DataType::kInt64}})};
  EXPECT_EQ(t.AppendRow({Value("not an int")}).code(),
            StatusCode::kInvalidArgument);
  // NULL is accepted by any column.
  EXPECT_TRUE(t.AppendRow({Value()}).ok());
  // Int accepted by double column.
  Table d{Schema({{"x", DataType::kDouble}})};
  EXPECT_TRUE(d.AppendRow({Value(int64_t{3})}).ok());
}

TEST(TableTest, AppendRowCodes) {
  Table t{Schema({{"a", DataType::kString}})};
  t.mutable_dictionary(0).GetOrInsert(Value("p"));
  t.mutable_dictionary(0).GetOrInsert(Value("q"));
  t.AppendRowCodes({1});
  t.AppendRowCodes({0});
  EXPECT_EQ(t.GetValue(0, 0), Value("q"));
  EXPECT_EQ(t.GetValue(1, 0), Value("p"));
}

TEST(TableTest, GetRow) {
  Table t = MakeSmallTable();
  std::vector<Value> row = t.GetRow(1);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], Value("verona"));
  EXPECT_EQ(row[1], Value(int64_t{12}));
}

TEST(TableTest, Project) {
  Table t = MakeSmallTable();
  Result<Table> p = t.Project({1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_columns(), 1u);
  EXPECT_EQ(p->num_rows(), 3u);
  EXPECT_EQ(p->schema().column(0).name, "pop");
  EXPECT_EQ(p->GetValue(0, 0), Value(int64_t{250}));

  Result<Table> reorder = t.Project({1, 0});
  ASSERT_TRUE(reorder.ok());
  EXPECT_EQ(reorder->schema().column(0).name, "pop");
  EXPECT_EQ(reorder->schema().column(1).name, "city");
}

TEST(TableTest, ProjectOutOfRange) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.Project({5}).status().code(), StatusCode::kOutOfRange);
}

TEST(TableTest, FilterRows) {
  Table t = MakeSmallTable();
  Table f = t.FilterRows({true, false, true});
  EXPECT_EQ(f.num_rows(), 2u);
  EXPECT_EQ(f.GetValue(0, 0), Value("madison"));
  EXPECT_EQ(f.GetValue(1, 0), Value("madison"));
}

TEST(BuildViewTest, ReleasesRowsInOrderAndLabelsByText) {
  Table t = MakeSmallTable();
  // Rows 2 and 0, in that order; the int64 "pop" column replaced by labels
  // of which two print the same.
  ViewLabels pop{1, {"[200-299]", "*", "[200-299]"}, {2, 0}};
  Table view = BuildView(t, {2, 0}, {pop});
  ASSERT_EQ(view.num_rows(), 2u);
  EXPECT_EQ(view.schema().column(1).type, DataType::kString);
  EXPECT_EQ(view.GetValue(0, 1), Value("[200-299]"));
  EXPECT_EQ(view.GetValue(1, 1), Value("[200-299]"));
  // Labels that print the same are one value with one code.
  EXPECT_EQ(view.dictionary(1).size(), 1u);
  EXPECT_EQ(view.GetCode(0, 1), view.GetCode(1, 1));
  // The other column keeps its type and shares the source dictionary.
  EXPECT_EQ(view.schema().column(0), t.schema().column(0));
  EXPECT_EQ(view.shared_dictionary(0), t.shared_dictionary(0));
  EXPECT_EQ(view.GetCode(0, 0), t.GetCode(2, 0));
  EXPECT_EQ(view.GetCode(1, 0), t.GetCode(0, 0));
}

TEST(TableTest, MultisetEqualsIgnoresRowOrder) {
  Table a{Schema({{"x", DataType::kInt64}})};
  Table b{Schema({{"x", DataType::kInt64}})};
  ASSERT_TRUE(a.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(a.AppendRow({Value(int64_t{2})}).ok());
  ASSERT_TRUE(b.AppendRow({Value(int64_t{2})}).ok());
  ASSERT_TRUE(b.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_TRUE(a.MultisetEquals(b));
}

TEST(TableTest, MultisetEqualsRespectsMultiplicity) {
  Table a{Schema({{"x", DataType::kInt64}})};
  Table b{Schema({{"x", DataType::kInt64}})};
  ASSERT_TRUE(a.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(a.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(b.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(a.MultisetEquals(b));
}

TEST(TableTest, MultisetEqualsChecksSchema) {
  Table a{Schema({{"x", DataType::kInt64}})};
  Table b{Schema({{"y", DataType::kInt64}})};
  EXPECT_FALSE(a.MultisetEquals(b));
}

TEST(TableTest, ToStringTruncates) {
  Table t = MakeSmallTable();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("madison"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

}  // namespace
}  // namespace incognito
