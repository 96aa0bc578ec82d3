#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/adults.h"
#include "data/patients.h"
#include "relation/binary_io.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::TempPath;

TEST(BinaryIoTest, RoundTripPatients) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  std::string path = TempPath("patients.inct");
  ASSERT_TRUE(WriteTableBinary(ds->table, path).ok());
  Result<Table> back = ReadTableBinary(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->MultisetEquals(ds->table));
  EXPECT_EQ(back->schema().ToString(), ds->table.schema().ToString());
  // Codes and dictionaries survive exactly (not just multiset equality).
  for (size_t c = 0; c < ds->table.num_columns(); ++c) {
    EXPECT_EQ(back->ColumnCodes(c), ds->table.ColumnCodes(c));
    EXPECT_EQ(back->dictionary(c).size(), ds->table.dictionary(c).size());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripWithNullsAndDoubles) {
  Table t{Schema({{"a", DataType::kDouble}, {"b", DataType::kString}})};
  ASSERT_TRUE(t.AppendRow({Value(1.5), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(), Value()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(-0.25), Value("x")}).ok());
  std::string path = TempPath("mixed.inct");
  ASSERT_TRUE(WriteTableBinary(t, path).ok());
  Result<Table> back = ReadTableBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->MultisetEquals(t));
  EXPECT_TRUE(back->GetValue(1, 0).is_null());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripLargeGenerated) {
  AdultsOptions opts;
  opts.num_rows = 3000;
  Result<SyntheticDataset> ds = MakeAdultsDataset(opts);
  ASSERT_TRUE(ds.ok());
  std::string path = TempPath("adults3k.inct");
  ASSERT_TRUE(WriteTableBinary(ds->table, path).ok());
  Result<Table> back = ReadTableBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 3000u);
  for (size_t c = 0; c < ds->table.num_columns(); ++c) {
    EXPECT_EQ(back->ColumnCodes(c), ds->table.ColumnCodes(c));
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsGarbage) {
  std::string path = TempPath("garbage.inct");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a table";
  }
  EXPECT_EQ(ReadTableBinary(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTruncatedFile) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  std::string path = TempPath("trunc.inct");
  ASSERT_TRUE(WriteTableBinary(ds->table, path).ok());
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_FALSE(ReadTableBinary(path).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileFails) {
  EXPECT_EQ(ReadTableBinary("/no/such/file.inct").status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace incognito
