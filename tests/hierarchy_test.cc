#include <gtest/gtest.h>

#include "common/random.h"
#include "hierarchy/builders.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/validation.h"
#include "service/problem_loader.h"
#include "test_util.h"

namespace incognito {
namespace {

Dictionary DictOf(const std::vector<Value>& values) {
  Dictionary d;
  for (const Value& v : values) d.GetOrInsert(v);
  return d;
}

// ---------------------------------------------------------------------------
// ValueHierarchy::Create and accessors (the Fig. 2 Zipcode hierarchy)
// ---------------------------------------------------------------------------

ValueHierarchy MakeZipHierarchy() {
  // Z0 = {53715, 53710, 53706, 53703}, Z1 = {5371*, 5370*}, Z2 = {537**}.
  Result<ValueHierarchy> h = ValueHierarchy::Create(
      "Zipcode",
      {{Value("53715"), Value("53710"), Value("53706"), Value("53703")},
       {Value("5371*"), Value("5370*")},
       {Value("537**")}},
      {{0, 0, 1, 1}, {0, 0}});
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  return std::move(h).value();
}

TEST(HierarchyTest, BasicShape) {
  ValueHierarchy h = MakeZipHierarchy();
  EXPECT_EQ(h.height(), 2u);
  EXPECT_EQ(h.num_levels(), 3u);
  EXPECT_EQ(h.DomainSize(0), 4u);
  EXPECT_EQ(h.DomainSize(1), 2u);
  EXPECT_EQ(h.DomainSize(2), 1u);
  EXPECT_EQ(h.attribute_name(), "Zipcode");
}

TEST(HierarchyTest, ParentAndGeneralize) {
  ValueHierarchy h = MakeZipHierarchy();
  // 53706 (code 2) -> 5370* (code 1) -> 537** (code 0).
  EXPECT_EQ(h.Parent(0, 2), 1);
  EXPECT_EQ(h.Parent(1, 1), 0);
  EXPECT_EQ(h.Generalize(2, 0), 2);  // identity at level 0
  EXPECT_EQ(h.Generalize(2, 1), 1);
  EXPECT_EQ(h.Generalize(2, 2), 0);
  EXPECT_EQ(h.LevelValue(1, h.Generalize(2, 1)), Value("5370*"));
}

TEST(HierarchyTest, GeneralizeFromIntermediateLevel) {
  ValueHierarchy h = MakeZipHierarchy();
  EXPECT_EQ(h.GeneralizeFrom(1, 0, 2), 0);  // 5371* -> 537**
  EXPECT_EQ(h.GeneralizeFrom(1, 0, 1), 0);  // identity
  EXPECT_EQ(h.GeneralizeFrom(0, 3, 2), 0);
}

TEST(HierarchyTest, IsAncestor) {
  ValueHierarchy h = MakeZipHierarchy();
  EXPECT_TRUE(h.IsAncestor(0, 1, 0));   // 5371* generalizes 53715
  EXPECT_FALSE(h.IsAncestor(0, 1, 1));  // 5370* does not
  EXPECT_TRUE(h.IsAncestor(3, 2, 0));   // 537** generalizes everything
}

TEST(HierarchyTest, BaseCodesUnder) {
  ValueHierarchy h = MakeZipHierarchy();
  EXPECT_EQ(h.BaseCodesUnder(1, 0), (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(h.BaseCodesUnder(1, 1), (std::vector<int32_t>{2, 3}));
  EXPECT_EQ(h.BaseCodesUnder(2, 0), (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(h.BaseCodesUnder(0, 2), (std::vector<int32_t>{2}));
}

TEST(HierarchyTest, BaseToLevelMapMatchesGeneralize) {
  ValueHierarchy h = MakeZipHierarchy();
  const std::vector<int32_t>& map = h.BaseToLevelMap(1);
  for (int32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(map[static_cast<size_t>(c)], h.Generalize(c, 1));
  }
}

TEST(HierarchyTest, CreateRejectsBadShapes) {
  // Parent map count must be levels - 1.
  EXPECT_FALSE(ValueHierarchy::Create("x", {{Value("a")}}, {{0}}).ok());
  // Parent map arity must match the level size.
  EXPECT_FALSE(ValueHierarchy::Create("x", {{Value("a"), Value("b")},
                                            {Value("r")}},
                                      {{0}})
                   .ok());
  // Parent codes must be in range.
  EXPECT_FALSE(ValueHierarchy::Create("x", {{Value("a")}, {Value("r")}},
                                      {{3}})
                   .ok());
  // Empty hierarchy is invalid.
  EXPECT_FALSE(ValueHierarchy::Create("x", {}, {}).ok());
}

TEST(HierarchyTest, ToStringMentionsLevels) {
  std::string s = MakeZipHierarchy().ToString();
  EXPECT_NE(s.find("Zipcode"), std::string::npos);
  EXPECT_NE(s.find("level 0"), std::string::npos);
  EXPECT_NE(s.find("537**"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

TEST(BuildersTest, SuppressionHierarchy) {
  Dictionary d = DictOf({Value("Male"), Value("Female")});
  Result<ValueHierarchy> h =
      BuildSuppressionHierarchy("Sex", d, Value("Person"));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->height(), 1u);
  EXPECT_EQ(h->DomainSize(1), 1u);
  EXPECT_EQ(h->LevelValue(1, 0), Value("Person"));
  EXPECT_EQ(h->Generalize(0, 1), h->Generalize(1, 1));
  EXPECT_TRUE(CheckWellFormed(h.value()).ok());
}

TEST(BuildersTest, SuppressionHierarchyEmptyDomainFails) {
  Dictionary d;
  EXPECT_FALSE(BuildSuppressionHierarchy("x", d).ok());
}

TEST(BuildersTest, TaxonomyHierarchy) {
  Dictionary d = DictOf({Value("Flu"), Value("Cold"), Value("Fracture")});
  TaxonomyHierarchyBuilder builder{"Disease"};
  builder.AddLeaf(Value("Flu"), {Value("Respiratory"), Value("*")});
  builder.AddLeaf(Value("Cold"), {Value("Respiratory"), Value("*")});
  builder.AddLeaf(Value("Fracture"), {Value("Injury"), Value("*")});
  Result<ValueHierarchy> h = builder.Build(d);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->height(), 2u);
  EXPECT_EQ(h->DomainSize(1), 2u);
  EXPECT_EQ(h->LevelValue(1, h->Generalize(0, 1)), Value("Respiratory"));
  EXPECT_EQ(h->Generalize(0, 1), h->Generalize(1, 1));
  EXPECT_NE(h->Generalize(0, 1), h->Generalize(2, 1));
  EXPECT_TRUE(CheckWellFormed(h.value()).ok());
}

TEST(BuildersTest, TaxonomyIgnoresExtraLeaves) {
  // A path for a value absent from the data is allowed and ignored.
  Dictionary d = DictOf({Value("Flu")});
  TaxonomyHierarchyBuilder builder{"Disease"};
  builder.AddLeaf(Value("Flu"), {Value("*")});
  builder.AddLeaf(Value("Rash"), {Value("*")});
  Result<ValueHierarchy> h = builder.Build(d);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->DomainSize(0), 1u);
}

TEST(BuildersTest, TaxonomyMissingLeafFails) {
  Dictionary d = DictOf({Value("Flu"), Value("Cold")});
  TaxonomyHierarchyBuilder builder{"Disease"};
  builder.AddLeaf(Value("Flu"), {Value("*")});
  EXPECT_EQ(builder.Build(d).status().code(), StatusCode::kNotFound);
}

TEST(BuildersTest, TaxonomyLengthConflictFails) {
  Dictionary d = DictOf({Value("a"), Value("b")});
  TaxonomyHierarchyBuilder builder{"x"};
  builder.AddLeaf(Value("a"), {Value("*")});
  builder.AddLeaf(Value("b"), {Value("g"), Value("*")});
  EXPECT_FALSE(builder.Build(d).ok());
}

TEST(BuildersTest, TaxonomyNoLevelsFails) {
  Dictionary d = DictOf({Value("a")});
  TaxonomyHierarchyBuilder builder{"x"};
  EXPECT_FALSE(builder.Build(d).ok());
}

TEST(BuildersTest, IntervalHierarchy) {
  Dictionary d;
  for (int64_t age = 17; age <= 30; ++age) d.GetOrInsert(Value(age));
  Result<ValueHierarchy> h =
      BuildIntervalHierarchy("Age", d, {5, 10}, /*add_suppression_top=*/true);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->height(), 3u);  // 5-ranges, 10-ranges, *
  // 17 -> [15-19] -> [10-19] -> *
  int32_t c17 = d.Find(Value(int64_t{17}));
  EXPECT_EQ(h->LevelValue(1, h->Generalize(c17, 1)), Value("[15-19]"));
  EXPECT_EQ(h->LevelValue(2, h->Generalize(c17, 2)), Value("[10-19]"));
  EXPECT_EQ(h->LevelValue(3, h->Generalize(c17, 3)), Value("*"));
  // 20 and 24 share the 5-range.
  EXPECT_EQ(h->Generalize(d.Find(Value(int64_t{20})), 1),
            h->Generalize(d.Find(Value(int64_t{24})), 1));
  EXPECT_NE(h->Generalize(d.Find(Value(int64_t{20})), 1),
            h->Generalize(d.Find(Value(int64_t{25})), 1));
  EXPECT_TRUE(CheckWellFormed(h.value()).ok());
}

TEST(BuildersTest, IntervalHierarchyWithoutTop) {
  Dictionary d;
  for (int64_t v = 0; v <= 9; ++v) d.GetOrInsert(Value(v));
  Result<ValueHierarchy> h =
      BuildIntervalHierarchy("x", d, {5}, /*add_suppression_top=*/false);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->height(), 1u);
  EXPECT_EQ(h->DomainSize(1), 2u);
}

TEST(BuildersTest, IntervalHierarchyNegativeValuesAlign) {
  Dictionary d = DictOf({Value(int64_t{-3}), Value(int64_t{-1}),
                         Value(int64_t{0}), Value(int64_t{4})});
  Result<ValueHierarchy> h =
      BuildIntervalHierarchy("x", d, {5}, /*add_suppression_top=*/true);
  ASSERT_TRUE(h.ok());
  // -3 and -1 belong to [-5,-1]; 0 and 4 to [0,4].
  EXPECT_EQ(h->Generalize(0, 1), h->Generalize(1, 1));
  EXPECT_EQ(h->Generalize(2, 1), h->Generalize(3, 1));
  EXPECT_NE(h->Generalize(0, 1), h->Generalize(2, 1));
}

TEST(BuildersTest, IntervalHierarchyRejectsBadWidths) {
  Dictionary d = DictOf({Value(int64_t{1})});
  EXPECT_FALSE(BuildIntervalHierarchy("x", d, {0}).ok());
  EXPECT_FALSE(BuildIntervalHierarchy("x", d, {10, 5}).ok());   // decreasing
  EXPECT_FALSE(BuildIntervalHierarchy("x", d, {5, 12}).ok());   // not nested
  EXPECT_TRUE(BuildIntervalHierarchy("x", d, {5, 10, 20}).ok());
}

TEST(BuildersTest, IntervalHierarchyRejectsNonInteger) {
  Dictionary d = DictOf({Value("abc")});
  EXPECT_FALSE(BuildIntervalHierarchy("x", d, {5}).ok());
}

TEST(BuildersTest, DigitRoundingHierarchy) {
  Dictionary d = DictOf({Value(int64_t{53715}), Value(int64_t{53710}),
                         Value(int64_t{53706}), Value(int64_t{53703})});
  Result<ValueHierarchy> h = BuildDigitRoundingHierarchy("Zip", d, 5, 2);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->height(), 2u);
  int32_t c = d.Find(Value(int64_t{53715}));
  EXPECT_EQ(h->LevelValue(1, h->Generalize(c, 1)), Value("5371*"));
  EXPECT_EQ(h->LevelValue(2, h->Generalize(c, 2)), Value("537**"));
  // 53715 and 53710 share 5371*; 53706 and 53703 share 5370*.
  EXPECT_EQ(h->Generalize(d.Find(Value(int64_t{53715})), 1),
            h->Generalize(d.Find(Value(int64_t{53710})), 1));
  EXPECT_NE(h->Generalize(d.Find(Value(int64_t{53715})), 1),
            h->Generalize(d.Find(Value(int64_t{53703})), 1));
  EXPECT_TRUE(CheckWellFormed(h.value()).ok());
}

TEST(BuildersTest, DigitRoundingZeroPads) {
  Dictionary d = DictOf({Value(int64_t{42})});
  Result<ValueHierarchy> h = BuildDigitRoundingHierarchy("x", d, 5, 1);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->LevelValue(1, 0), Value("0004*"));
}

TEST(BuildersTest, DigitRoundingRejectsBadInput) {
  Dictionary neg = DictOf({Value(int64_t{-1})});
  EXPECT_FALSE(BuildDigitRoundingHierarchy("x", neg, 5, 1).ok());
  Dictionary big = DictOf({Value(int64_t{100000})});
  EXPECT_FALSE(BuildDigitRoundingHierarchy("x", big, 5, 1).ok());
  Dictionary ok = DictOf({Value(int64_t{3})});
  EXPECT_FALSE(BuildDigitRoundingHierarchy("x", ok, 5, 0).ok());
  EXPECT_FALSE(BuildDigitRoundingHierarchy("x", ok, 5, 6).ok());
}

TEST(BuildersTest, DigitRoundingRefusesDigitCountsOutsideInt64) {
  // A negative digit count once became SIZE_MAX digits and looped for
  // ever; 19 digits overflow int64_t.
  Dictionary d = DictOf({Value(int64_t{3})});
  for (const char* spec : {"digits:-1:1", "digits:19:1", "digits:0:0",
                           "digits:5:-1", "digits:99999999999999999999:1"}) {
    Result<ValueHierarchy> h = BuildHierarchyFromSpec("x", spec, d);
    EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_EQ(BuildDigitRoundingHierarchy("x", d, 19, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildDigitRoundingHierarchy("x", d, 0, 0).status().code(),
            StatusCode::kInvalidArgument);
  // The widest digit count that fits still builds.
  Result<ValueHierarchy> widest = BuildHierarchyFromSpec("x", "digits:18:1", d);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->LevelValue(1, 0), Value("00000000000000000*"));
}

TEST(BuildersTest, IntervalSpecRefusesAnOverlongWidth) {
  // strtoll once clamped this to LLONG_MAX without a word.
  Dictionary d = DictOf({Value(int64_t{3})});
  Result<ValueHierarchy> h =
      BuildHierarchyFromSpec("x", "interval:99999999999999999999", d);
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().message().find("bad interval width"),
            std::string::npos)
      << h.status().ToString();
}

TEST(BuildersTest, DateHierarchy) {
  Dictionary d = DictOf({Value("2001-03-04"), Value("2001-03-20"),
                         Value("2001-11-01")});
  Result<ValueHierarchy> h = BuildDateHierarchy("Order-date", d);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->height(), 3u);
  EXPECT_EQ(h->LevelValue(1, h->Generalize(0, 1)), Value("2001-03"));
  EXPECT_EQ(h->Generalize(0, 1), h->Generalize(1, 1));
  EXPECT_NE(h->Generalize(0, 1), h->Generalize(2, 1));
  EXPECT_EQ(h->LevelValue(2, h->Generalize(2, 2)), Value("2001"));
  EXPECT_TRUE(CheckWellFormed(h.value()).ok());
}

TEST(BuildersTest, DateHierarchyRejectsNonDates) {
  Dictionary d = DictOf({Value("03/04/2001")});
  EXPECT_FALSE(BuildDateHierarchy("x", d).ok());
}

TEST(BuildersTest, FromFunctionsRejectsInconsistentGrouping) {
  // a,b share a level-1 label but diverge at level 2: not a chain.
  Dictionary d = DictOf({Value("a"), Value("b")});
  std::vector<std::function<Value(const Value&)>> fns = {
      [](const Value&) { return Value("g"); },
      [](const Value& v) { return v; },  // splits the merged group
  };
  EXPECT_EQ(BuildHierarchyFromFunctions("x", d, fns).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(ValidationTest, DetectsDuplicateLabels) {
  Result<ValueHierarchy> h = ValueHierarchy::Create(
      "x", {{Value("a"), Value("a")}, {Value("r")}}, {{0, 0}});
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(CheckWellFormed(h.value()).ok());
}

TEST(ValidationTest, DetectsNonSurjectiveLevel) {
  Result<ValueHierarchy> h = ValueHierarchy::Create(
      "x", {{Value("a")}, {Value("r"), Value("orphan")}, {Value("*")}},
      {{0}, {0, 0}});
  ASSERT_TRUE(h.ok());
  Status s = CheckWellFormed(h.value());
  EXPECT_FALSE(s.ok());
  HierarchyCheckOptions lax;
  lax.require_surjective = false;
  EXPECT_TRUE(CheckWellFormed(h.value(), lax).ok());
}

TEST(ValidationTest, DetectsMultiRoot) {
  Result<ValueHierarchy> h = ValueHierarchy::Create(
      "x", {{Value("a"), Value("b")}, {Value("r1"), Value("r2")}},
      {{0, 1}});
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(CheckWellFormed(h.value()).ok());
  HierarchyCheckOptions lax;
  lax.require_single_root = false;
  EXPECT_TRUE(CheckWellFormed(h.value(), lax).ok());
}

TEST(ValidationTest, MatchesDictionary) {
  Dictionary d = DictOf({Value("Male"), Value("Female")});
  Result<ValueHierarchy> h = BuildSuppressionHierarchy("Sex", d);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(CheckMatchesDictionary(h.value(), d).ok());

  // Growing the dictionary after the hierarchy is built must be detected.
  d.GetOrInsert(Value("Other"));
  EXPECT_EQ(CheckMatchesDictionary(h.value(), d).code(),
            StatusCode::kFailedPrecondition);

  // Same size, different values must be detected.
  Dictionary other = DictOf({Value("Male"), Value("FEMALE")});
  EXPECT_FALSE(CheckMatchesDictionary(h.value(), other).ok());
}

TEST(ValidationTest, RandomHierarchiesAreWellFormed) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    size_t domain = 2 + rng.Uniform(20);
    size_t height = 1 + rng.Uniform(4);
    ValueHierarchy h = testing_util::MakeRandomHierarchy(
        "rand", domain, height, rng);
    EXPECT_TRUE(CheckWellFormed(h).ok());
  }
}

}  // namespace
}  // namespace incognito
