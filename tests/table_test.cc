#include <gtest/gtest.h>

#include "table/table.h"
#include "table/value.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

using testing::MakeFinanceTable;
using testing::MakeNationsTable;

// ----------------------------------------------------------------- Value

TEST(ValueTest, FromTextInference) {
  EXPECT_TRUE(Value::FromText("").is_null());
  EXPECT_TRUE(Value::FromText("n/a").is_null());
  EXPECT_TRUE(Value::FromText("-").is_null());
  EXPECT_TRUE(Value::FromText("42").is_number());
  EXPECT_TRUE(Value::FromText("$1,200.5").is_number());
  EXPECT_TRUE(Value::FromText("true").is_bool());
  EXPECT_TRUE(Value::FromText("hello world").is_string());
}

// Words strtod reads as numbers ("Nan", "Inf", "infinity", "0x10") are
// text cells: a column of given names must not turn into NaN.
TEST(ValueTest, NonDecimalWordsStayText) {
  for (const char* text : {"Nan", "Inf", "infinity", "0x10", "-inf"}) {
    Value v = Value::FromText(text);
    EXPECT_TRUE(v.is_string()) << text;
    EXPECT_FALSE(v.ToNumber().ok()) << text;
  }
  Table t = Table::FromCsv("name,score\nNan,3\nInf,4\n").ValueOrDie();
  EXPECT_EQ(t.schema().column(0).type, ColumnType::kText);
  EXPECT_TRUE(t.cell(0, 0).is_string());
  EXPECT_EQ(t.cell(1, 0).ToDisplayString(), "Inf");
  // As NaN, "Nan" was unequal even to itself; as +inf, "Inf" was "nearly
  // equal" to every finite number.
  EXPECT_TRUE(Value::String("Nan").Equals(Value::String("nan")));
  EXPECT_FALSE(Value::String("Inf").Equals(Value::Number(1e308)));
}

TEST(ValueTest, NumberKeepsSurfaceText) {
  Value v = Value::FromText(" $1,200.50 ");
  ASSERT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.number(), 1200.5);
  EXPECT_EQ(v.ToDisplayString(), "$1,200.50");
}

TEST(ValueTest, SemanticEquality) {
  EXPECT_TRUE(Value::FromText("$1,200.5").Equals(Value::Number(1200.5)));
  EXPECT_TRUE(Value::String("China").Equals(Value::String("china")));
  EXPECT_FALSE(Value::Number(1).Equals(Value::String("one")));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value::Null().Equals(Value::Number(0)));
}

TEST(ValueTest, CompareNumericAndString) {
  EXPECT_LT(Value::Number(2).Compare(Value::Number(10)), 0);
  EXPECT_GT(Value::String("zebra").Compare(Value::String("Apple")), 0);
  EXPECT_LT(Value::Null().Compare(Value::Number(0)), 0);
  // String "30" vs number 24 compares numerically.
  EXPECT_GT(Value::String("30").Compare(Value::Number(24)), 0);
}

TEST(ValueTest, ToNumberConversions) {
  EXPECT_DOUBLE_EQ(Value::FromText("12.5%").ToNumber().ValueOrDie(), 12.5);
  EXPECT_FALSE(Value::String("abc").ToNumber().ok());
  EXPECT_FALSE(Value::Null().ToNumber().ok());
  EXPECT_DOUBLE_EQ(Value::Bool(true).ToNumber().ValueOrDie(), 1.0);
}

// ----------------------------------------------------------------- Table

TEST(TableTest, FromCsvBasics) {
  Table t = MakeNationsTable();
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(t.num_columns(), 5u);
  EXPECT_EQ(t.schema().column(0).name, "nation");
  EXPECT_EQ(t.cell(0, 0).ToDisplayString(), "united states");
  EXPECT_DOUBLE_EQ(t.cell(1, 1).number(), 8.0);
}

TEST(TableTest, CsvQuotedFields) {
  auto t = Table::FromCsv(
      "a,b\n\"x, y\",\"he said \"\"hi\"\"\"\n").ValueOrDie();
  EXPECT_EQ(t.cell(0, 0).ToDisplayString(), "x, y");
  EXPECT_EQ(t.cell(0, 1).ToDisplayString(), "he said \"hi\"");
}

TEST(TableTest, CsvRoundTrip) {
  Table t = MakeFinanceTable();
  auto again = Table::FromCsv(t.ToCsv()).ValueOrDie();
  ASSERT_EQ(again.num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      EXPECT_TRUE(again.cell(r, c).Equals(t.cell(r, c)))
          << "cell " << r << "," << c;
    }
  }
}

TEST(TableTest, TypeInference) {
  Table t = MakeNationsTable();
  EXPECT_EQ(t.schema().column(0).type, ColumnType::kText);
  EXPECT_EQ(t.schema().column(1).type, ColumnType::kNumber);
  EXPECT_EQ(t.schema().column(4).type, ColumnType::kNumber);
}

TEST(TableTest, TypeInferenceToleratesFootnote) {
  auto t = Table::FromCsv(
      "name,value\na,1\nb,2\nc,3\nd,4\ne,5\nf,6\ng,7\nh,8\ni,9\nj,see note\n")
      .ValueOrDie();
  // 9/10 numeric cells: still a numeric column.
  EXPECT_EQ(t.schema().column(1).type, ColumnType::kNumber);
}

TEST(TableTest, ColumnIndexCaseInsensitiveAndFuzzy) {
  Table t = MakeNationsTable();
  EXPECT_EQ(t.ColumnIndex("GOLD").ValueOrDie(), 1u);
  EXPECT_EQ(t.ColumnIndex("silver").ValueOrDie(), 2u);
  EXPECT_FALSE(t.ColumnIndex("platinum").ok());
}

TEST(TableTest, RowIndexByName) {
  Table t = MakeFinanceTable();
  EXPECT_EQ(t.RowIndexByName("revenue").ValueOrDie(), 0u);
  EXPECT_EQ(t.RowIndexByName("Stockholders' Equity").ValueOrDie(), 3u);
  EXPECT_FALSE(t.RowIndexByName("dividends").ok());
}

TEST(TableTest, CellByNames) {
  Table t = MakeFinanceTable();
  Value v = t.CellByNames("revenue", "2019").ValueOrDie();
  EXPECT_DOUBLE_EQ(v.number(), 1200.5);
}

TEST(TableTest, SubTableAndWithoutRow) {
  Table t = MakeNationsTable();
  Table sub = t.SubTable({2, 0});
  ASSERT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.cell(0, 0).ToDisplayString(), "japan");
  EXPECT_EQ(sub.cell(1, 0).ToDisplayString(), "united states");

  Table without = t.WithoutRow(0);
  EXPECT_EQ(without.num_rows(), 4u);
  EXPECT_EQ(without.cell(0, 0).ToDisplayString(), "china");
}

TEST(TableTest, AppendRowValidatesWidth) {
  Table t = MakeNationsTable();
  EXPECT_FALSE(t.AppendRow({Value::String("x")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::String("italy"), Value::Number(1),
                           Value::Number(2), Value::Number(3),
                           Value::Number(6)})
                  .ok());
  EXPECT_EQ(t.num_rows(), 6u);
}

TEST(TableTest, ColumnsOfType) {
  Table t = MakeNationsTable();
  auto nums = t.ColumnsOfType(ColumnType::kNumber);
  EXPECT_EQ(nums.size(), 4u);
  auto texts = t.ColumnsOfType(ColumnType::kText);
  ASSERT_EQ(texts.size(), 1u);
  EXPECT_EQ(texts[0], 0u);
}

TEST(TableTest, LinearizeMentionsHeadersAndCells) {
  Table t = MakeNationsTable();
  std::string lin = t.Linearize();
  EXPECT_NE(lin.find("col: nation is united states"), std::string::npos);
  EXPECT_NE(lin.find("col: total is 30"), std::string::npos);
}

TEST(TableTest, MarkdownRender) {
  Table t = MakeNationsTable();
  std::string md = t.ToMarkdown();
  EXPECT_NE(md.find("| nation |"), std::string::npos);
  EXPECT_NE(md.find("| china |"), std::string::npos);
}

TEST(TableTest, EmptyCsvFails) {
  EXPECT_FALSE(Table::FromCsv("").ok());
}

TEST(TableTest, RaggedRowFails) {
  EXPECT_FALSE(Table::FromCsv("a,b\n1\n").ok());
}

}  // namespace
}  // namespace uctr
