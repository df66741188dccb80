// Differential tests for the lazily built per-table index (table/index.h).
//
// The TableIndex contract is bit-identical execution: for every program the
// indexed path (use_index = true, the default) must produce exactly the
// same outcome as the reference scan path — same status code and message
// on errors, same values (type and display text), the same evidence rows,
// and the same tie-breaking row order. These tests execute fixture query
// suites, every built-in template over randomized tables, and fixed
// programs of all three families (including ones the executor rejects)
// through both paths and compare the outcomes field by field, including
// after mutations invalidate the cached index and under concurrent
// first-touch builds.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/numeric.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "logic/executor.h"
#include "obs/metrics.h"
#include "program/library.h"
#include "program/sampler.h"
#include "sql/executor.h"
#include "table/index.h"
#include "table/table.h"
#include "tests/test_util.h"

namespace uctr {
namespace {

// The medal fixture used across the executor test suites: text rows with
// duplicate values (tie-breaking), a numeric tie in `total`, and a null.
Table MedalTable() {
  return Table::FromCsv(
             "nation,gold,silver,bronze,total\n"
             "Norway,16,8,13,37\n"
             "Germany,12,10,5,27\n"
             "Canada,4,8,14,26\n"
             "USA,8,10,9,27\n"
             "Sweden,8,5,5,18\n"
             "Austria,4,8,5,17\n"
             "Italy,2,7,,9\n")
      .ValueOrDie();
}

// Currency/percent formatting plus nulls: ToNumber parses "$1,234" and
// "12%", so the numeric cache must agree with per-cell parsing exactly.
Table FinanceTable() {
  return Table::FromCsv(
             "item,fy2019,fy2020,growth\n"
             "revenue,\"$1,234\",\"$2,468\",100%\n"
             "cost,\"$800\",\"$900\",12.5%\n"
             "margin,\"$434\",\"$1,568\",-\n"
             "headcount,25,31,24%\n")
      .ValueOrDie();
}

std::string DescribeOutcome(const Result<ExecResult>& r) {
  if (!r.ok()) {
    return "status{" + r.status().ToString() + "}";
  }
  std::string out = "ok{values=[";
  for (size_t i = 0; i < r->values.size(); ++i) {
    if (i > 0) out += "|";
    const Value& v = r->values[i];
    out += std::string(ValueTypeToString(v.type())) + ":" +
           v.ToDisplayString();
  }
  out += "] evidence=[";
  for (size_t i = 0; i < r->evidence_rows.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(r->evidence_rows[i]);
  }
  return out + "]}";
}

// Executes `query` through the indexed and the scan path and requires the
// outcomes to match field for field. Each call uses a fresh copy of the
// table for the scan so the indexed run can never warm state the scan
// reads (copies deliberately do not share the cached index).
void ExpectSqlIdentical(const Table& table, const std::string& query) {
  Table scan_copy = table;
  auto indexed = sql::ExecuteQuery(query, table, {.use_index = true});
  auto scanned = sql::ExecuteQuery(query, scan_copy, {.use_index = false});
  EXPECT_EQ(DescribeOutcome(indexed), DescribeOutcome(scanned))
      << "sql query diverged: " << query;
}

void ExpectLogicIdentical(const Table& table, const std::string& form) {
  Table scan_copy = table;
  auto indexed =
      logic::ExecuteLogicalForm(form, table, {.use_index = true});
  auto scanned =
      logic::ExecuteLogicalForm(form, scan_copy, {.use_index = false});
  EXPECT_EQ(DescribeOutcome(indexed), DescribeOutcome(scanned))
      << "logical form diverged: " << form;
}

const std::vector<std::string>& SqlQuerySuite() {
  static const std::vector<std::string> kQueries = {
      // Equality predicates: hash-index path (text) and numeric path.
      "SELECT total FROM w WHERE nation = 'Germany'",
      "SELECT nation FROM w WHERE gold = 8",
      "SELECT nation FROM w WHERE total = 27",
      "SELECT nation FROM w WHERE nation = 'Atlantis'",
      "SELECT nation FROM w WHERE nation != 'USA'",
      // Range predicates over the numeric cache.
      "SELECT nation FROM w WHERE gold > 5",
      "SELECT nation FROM w WHERE gold >= 8",
      "SELECT nation FROM w WHERE silver < 8",
      "SELECT nation FROM w WHERE bronze <= 5",
      // Conjunctions, including an empty intermediate row set.
      "SELECT nation FROM w WHERE gold > 5 AND silver = 10",
      "SELECT nation FROM w WHERE gold > 100 AND silver = 10",
      // Ordering (both directions; `total` ties 27-27 check stability)
      // and limits.
      "SELECT nation FROM w ORDER BY total DESC",
      "SELECT nation FROM w ORDER BY total ASC",
      "SELECT nation, total FROM w ORDER BY total DESC LIMIT 3",
      "SELECT nation FROM w WHERE gold >= 4 ORDER BY nation ASC LIMIT 4",
      // Aggregates, with and without predicates; bronze has a null.
      "SELECT COUNT(nation) FROM w",
      "SELECT COUNT(bronze) FROM w",
      "SELECT COUNT(DISTINCT silver) FROM w",
      "SELECT COUNT(DISTINCT nation) FROM w WHERE gold >= 4",
      "SELECT SUM(total) FROM w",
      "SELECT SUM(bronze) FROM w WHERE gold < 10",
      "SELECT AVG(silver) FROM w",
      "SELECT MIN(total) FROM w",
      "SELECT MAX(total) FROM w",
      "SELECT MAX(total) FROM w WHERE gold < 10",
      "SELECT MIN(nation) FROM w",
      // Error parity: unknown columns in every clause position.
      "SELECT ghost FROM w",
      "SELECT nation FROM w WHERE ghost = 1",
      "SELECT nation FROM w ORDER BY ghost",
      "SELECT SUM(ghost) FROM w",
      // Type-error parity: aggregating a text column.
      "SELECT SUM(nation) FROM w",
      "SELECT AVG(nation) FROM w WHERE gold > 5",
  };
  return kQueries;
}

const std::vector<std::string>& LogicFormSuite() {
  static const std::vector<std::string> kForms = {
      // Row selection.
      "hop { filter_eq { all_rows ; nation ; Germany } ; total }",
      "count { filter_eq { all_rows ; silver ; 8 } }",
      "count { filter_not_eq { all_rows ; nation ; USA } }",
      "count { filter_greater { all_rows ; gold ; 5 } }",
      "count { filter_less_eq { all_rows ; bronze ; 5 } }",
      "count { filter_all { all_rows ; bronze } }",
      // Superlatives and ordinals (27-27 tie in total).
      "hop { argmax { all_rows ; total } ; nation }",
      "hop { argmin { all_rows ; total } ; nation }",
      "hop { nth_argmax { all_rows ; total ; 2 } ; nation }",
      "hop { nth_argmax { all_rows ; total ; 3 } ; nation }",
      "hop { nth_argmin { all_rows ; silver ; 2 } ; nation }",
      "max { all_rows ; gold }",
      "min { all_rows ; bronze }",
      "nth_max { all_rows ; total ; 2 }",
      "nth_min { all_rows ; total ; 3 }",
      // Aggregates over views (bronze includes a null).
      "sum { all_rows ; total }",
      "avg { all_rows ; silver }",
      "sum { filter_greater { all_rows ; gold ; 5 } ; total }",
      "avg { filter_eq { all_rows ; silver ; 8 } ; gold }",
      // Majority / comparison wrappers.
      "most_greater { all_rows ; gold ; 3 }",
      "most_eq { all_rows ; silver ; 8 }",
      "all_greater { all_rows ; total ; 5 }",
      "eq { count { filter_greater { all_rows ; gold ; 5 } } ; 3 }",
      "diff { max { all_rows ; total } ; min { all_rows ; total } }",
      "greater { hop { filter_eq { all_rows ; nation ; Norway } ; gold } ; "
      "hop { filter_eq { all_rows ; nation ; Sweden } ; gold } }",
      // Superlative on a filtered (subset) view.
      "hop { argmax { filter_greater { all_rows ; silver ; 7 } ; total } ; "
      "nation }",
      // Error parity: missing column / missing row value.
      "max { all_rows ; ghost }",
      "hop { filter_eq { all_rows ; nation ; Atlantis } ; gold }",
      "sum { all_rows ; nation }",
  };
  return kForms;
}

TEST(IndexDifferentialTest, SqlFixtureSuiteMatchesScan) {
  Table medals = MedalTable();
  for (const std::string& query : SqlQuerySuite()) {
    ExpectSqlIdentical(medals, query);
  }
}

TEST(IndexDifferentialTest, SqlFinanceSuiteMatchesScan) {
  Table finance = FinanceTable();
  for (const std::string& query : {
           "SELECT fy2020 FROM w WHERE item = 'revenue'",
           "SELECT item FROM w WHERE fy2019 = 1234",
           "SELECT item FROM w WHERE fy2019 > 500 ORDER BY fy2020 DESC",
           "SELECT SUM(fy2020) FROM w",
           "SELECT COUNT(growth) FROM w",
           "SELECT COUNT(DISTINCT growth) FROM w",
           "SELECT MAX(growth) FROM w",
           "SELECT AVG(growth) FROM w",
       }) {
    ExpectSqlIdentical(finance, query);
  }
}

TEST(IndexDifferentialTest, LogicFixtureSuiteMatchesScan) {
  Table medals = MedalTable();
  for (const std::string& form : LogicFormSuite()) {
    ExpectLogicIdentical(medals, form);
  }
}

TEST(IndexDifferentialTest, EmptyAndDegenerateTables) {
  Table empty = Table::FromCsv("a,b\n").ValueOrDie();
  ExpectSqlIdentical(empty, "SELECT a FROM w WHERE b = 1");
  ExpectSqlIdentical(empty, "SELECT MAX(a) FROM w");
  // Scan parity on zero rows: a bad column in the second condition is
  // never resolved because no row survives the first.
  ExpectSqlIdentical(empty, "SELECT a FROM w WHERE a = 1 AND ghost = 2");
  ExpectLogicIdentical(empty, "count { all_rows }");
  ExpectLogicIdentical(empty, "max { all_rows ; a }");

  Table nulls = Table::FromCsv("x,y\n,\n,\n").ValueOrDie();
  ExpectSqlIdentical(nulls, "SELECT COUNT(x) FROM w");
  ExpectSqlIdentical(nulls, "SELECT x FROM w WHERE y = 0");
  ExpectLogicIdentical(nulls, "count { filter_all { all_rows ; x } }");
}

// Randomized tables: mixed-type columns (numeric text like "7", currency,
// plain words, nulls) with heavy duplication so equality and tie-breaking
// paths all fire. Every query from a fixed suite must agree between the
// two execution modes on every sampled table.
TEST(IndexDifferentialTest, RandomizedTablesMatchScan) {
  Rng rng(20240817);
  const std::vector<std::string> words = {"alpha", "beta",  "gamma",
                                          "delta", "Alpha", "BETA"};
  for (int trial = 0; trial < 25; ++trial) {
    size_t rows = 1 + rng.Index(14);
    std::vector<std::vector<std::string>> cells;
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row(4);
      row[0] = words[rng.Index(words.size())];
      row[1] = rng.Bernoulli(0.15)
                   ? ""
                   : std::to_string(static_cast<int>(rng.Index(6)));
      row[2] = rng.Bernoulli(0.2)
                   ? words[rng.Index(words.size())]
                   : "$" + std::to_string(100 * (1 + rng.Index(5)));
      row[3] = std::to_string(static_cast<int>(rng.Index(4))) + "." +
               std::to_string(static_cast<int>(rng.Index(10)));
      cells.push_back(std::move(row));
    }
    Table t =
        Table::FromStrings({"name", "score", "amount", "ratio"}, cells)
            .ValueOrDie();
    for (const std::string& query : {
             "SELECT score FROM w WHERE name = 'alpha'",
             "SELECT name FROM w WHERE score = 3",
             "SELECT name FROM w WHERE amount = 300",
             "SELECT name FROM w WHERE ratio > 1.5 ORDER BY score DESC",
             "SELECT name FROM w ORDER BY amount ASC",
             "SELECT name FROM w ORDER BY name DESC LIMIT 3",
             "SELECT COUNT(DISTINCT name) FROM w",
             "SELECT SUM(score) FROM w",
             "SELECT SUM(amount) FROM w",
             "SELECT MIN(amount) FROM w",
             "SELECT MAX(name) FROM w",
             "SELECT AVG(ratio) FROM w WHERE score >= 2",
         }) {
      ExpectSqlIdentical(t, query);
    }
    for (const std::string& form : {
             "count { filter_eq { all_rows ; name ; alpha } }",
             "hop { argmax { all_rows ; ratio } ; name }",
             "hop { nth_argmin { all_rows ; ratio ; 2 } ; name }",
             "sum { all_rows ; score }",
             "most_eq { all_rows ; name ; beta }",
         }) {
      ExpectLogicIdentical(t, form);
    }
  }
}

// Mutations must invalidate the cached index: results computed after a
// mutable_cell / AppendRow / AppendColumn must reflect the new data and
// still match the scan path exactly.
TEST(IndexInvalidationTest, MutationInvalidatesAndStaysIdentical) {
  Table t = MedalTable();

  auto before = sql::ExecuteQuery(
      "SELECT total FROM w WHERE nation = 'Germany'", t);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->ToDisplayString(), "27");

  // Rename Germany; the stale hash index would still find it.
  *t.mutable_cell(1, 0) = Value::String("Wakanda");
  auto renamed = sql::ExecuteQuery(
      "SELECT total FROM w WHERE nation = 'Germany'", t);
  // A stale hash index would still answer 27; the executor's no-match
  // policy is an EmptyResult status.
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.status().code(), StatusCode::kEmptyResult);
  ExpectSqlIdentical(t, "SELECT total FROM w WHERE nation = 'Wakanda'");

  // Bump a number past the max; the stale sorted order would miss it.
  *t.mutable_cell(4, 4) = Value::Number(99);
  auto max_after = logic::ExecuteLogicalForm(
      "hop { argmax { all_rows ; total } ; nation }", t);
  ASSERT_TRUE(max_after.ok());
  EXPECT_EQ(max_after->ToDisplayString(), "Sweden");
  ExpectLogicIdentical(t, "hop { argmax { all_rows ; total } ; nation }");

  // AppendRow extends every per-column cache.
  ASSERT_TRUE(t.AppendRow({Value::String("Norway"), Value::Number(1),
                           Value::Number(2), Value::Number(3),
                           Value::Number(6)})
                  .ok());
  ExpectSqlIdentical(t, "SELECT total FROM w WHERE nation = 'Norway'");
  ExpectSqlIdentical(t, "SELECT COUNT(DISTINCT nation) FROM w");

  // AppendColumn changes the column count the index was sized for.
  ASSERT_TRUE(t.AppendColumn("rank", Value::Number(1)).ok());
  ExpectSqlIdentical(t, "SELECT nation FROM w WHERE rank = 1");
  ExpectLogicIdentical(t, "sum { all_rows ; rank }");
}

TEST(IndexInvalidationTest, CopiesRebuildMovesCarry) {
  Table t = MedalTable();
  t.WarmIndex();
  const TableIndex* warmed = &t.index();

  // A copy never shares the original's index.
  Table copy = t;
  EXPECT_NE(&copy.index(), warmed);
  ExpectSqlIdentical(copy, "SELECT total FROM w WHERE nation = 'Canada'");

  // A move carries the warmed index along (serving moves tables into
  // Samples after warming them once at load).
  Table moved = std::move(t);
  EXPECT_EQ(&moved.index(), warmed);
  ExpectSqlIdentical(moved, "SELECT total FROM w WHERE nation = 'Canada'");
}

// Runs `program` through Program::Execute on `table` (indexed) and on a
// copy with the index disabled — the scan a degraded serving table runs —
// and requires identical outcomes, down to Value::Equals on every value.
void ExpectProgramIdentical(const Program& program, const Table& table) {
  Table scan_copy = table;
  scan_copy.set_index_enabled(false);
  auto indexed = program.Execute(table);
  auto scanned = program.Execute(scan_copy);
  ASSERT_EQ(DescribeOutcome(indexed), DescribeOutcome(scanned))
      << ProgramTypeToString(program.type) << " diverged: " << program.text;
  if (!indexed.ok()) return;
  for (size_t i = 0; i < indexed->values.size(); ++i) {
    EXPECT_TRUE(indexed->values[i].Equals(scanned->values[i]))
        << program.text;
  }
}

// Every built-in template, instantiated on three randomized tables per
// seed, must execute identically on the indexed and the scan path.
class IndexProgramDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

TEST_P(IndexProgramDifferentialTest, AllBuiltinTemplatesMatchScan) {
  TemplateLibrary library = TemplateLibrary::Builtin();
  ProgramSampler sampler(&rng_);
  size_t executed = 0;
  for (int round = 0; round < 3; ++round) {
    Table table = uctr::testing::RandomTable(&rng_);
    for (const ProgramTemplate& tmpl : library.templates()) {
      Result<SampledProgram> sampled =
          tmpl.HasDerive() ? sampler.SampleClaim(tmpl, table, round % 2 == 0)
                           : sampler.Sample(tmpl, table);
      if (!sampled.ok()) continue;  // Binding failed on this table; skip.
      ExpectProgramIdentical(sampled->program, table);
      ++executed;
    }
  }
  // The library must not silently stop sampling: differential coverage
  // requires real executions.
  EXPECT_GT(executed, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexProgramDifferentialTest,
                         ::testing::Values(1, 7, 42, 1234, 99991));

// Fixed programs covering each family's edge cases, including ones the
// executor rejects: the scan must reproduce the exact error Status too.
TEST(IndexFixedProgramTest, SqlProgramsMatch) {
  Table t = uctr::testing::MakeNationsTable();
  for (const char* text : {
           "SELECT [nation] FROM w",
           "SELECT [nation] FROM w WHERE [gold] > '5'",
           "SELECT COUNT(*) FROM w WHERE [gold] > '5'",
           "SELECT MAX([total]) FROM w",
           "SELECT MIN([silver]) FROM w WHERE [bronze] < '9'",
           "SELECT SUM([gold]) FROM w",
           "SELECT AVG([total]) FROM w WHERE [gold] >= '5'",
           "SELECT [nation] FROM w ORDER BY [total] DESC LIMIT 1",
           "SELECT [nation], [gold] FROM w ORDER BY [gold] ASC",
           "SELECT COUNT(DISTINCT [gold]) FROM w",
           // No matching rows: an empty-result error.
           "SELECT [nation] FROM w WHERE [gold] > '99'",
           // Unknown column: both paths must fail identically.
           "SELECT [unobtainium] FROM w",
       }) {
    ExpectProgramIdentical({ProgramType::kSql, text}, t);
  }
}

TEST(IndexFixedProgramTest, LogicProgramsMatch) {
  Table t = uctr::testing::MakeNationsTable();
  for (const char* text : {
           "eq { hop { filter_eq { all_rows ; nation ; china } ; gold } ; 8 }",
           "eq { count { filter_greater { all_rows ; gold ; 5 } } ; 2 }",
           "eq { hop { argmax { all_rows ; total } ; nation } ; "
           "united states }",
           "eq { hop { nth_argmin { all_rows ; gold ; 2 } ; nation } ; "
           "japan }",
           "round_eq { sum { all_rows ; gold } ; 30 }",
           "round_eq { avg { all_rows ; silver } ; 6.8 }",
           "greater { hop { filter_eq { all_rows ; nation ; china } ; gold } "
           "; hop { filter_eq { all_rows ; nation ; france } ; gold } }",
           "most_greater { all_rows ; total ; 10 }",
           "all_greater { all_rows ; total ; 10 }",
           "only { filter_eq { all_rows ; gold ; 10 } }",
           "and { eq { count { all_rows } ; 5 } ; most_eq { all_rows ; "
           "bronze ; 8 } }",
           "not { eq { count { all_rows } ; 4 } }",
           "max { all_rows ; total }",
           "filter_eq { all_rows ; nation ; japan }",
           // Empty view: hop / majority errors must be reproduced.
           "hop { filter_eq { all_rows ; nation ; atlantis } ; gold }",
           "most_eq { filter_eq { all_rows ; nation ; atlantis } ; gold ; "
           "1 }",
           // NaN / oversized ordinals: both paths must reject (the NaN
           // case used to read rows[-1] — found by fuzzing).
           "eq { hop { nth_argmax { all_rows ; gold ; nan } ; nation } ; "
           "china }",
           "eq { hop { nth_argmax { all_rows ; gold ; 1e300 } ; nation } ; "
           "china }",
           // diff over text cells: ToNumber failure surfaces identically.
           "eq { diff { hop { filter_eq { all_rows ; nation ; china } ; "
           "nation } ; 3 } ; 1 }",
       }) {
    ExpectProgramIdentical({ProgramType::kLogicalForm, text}, t);
  }
}

TEST(IndexFixedProgramTest, ArithProgramsMatch) {
  Table t = uctr::testing::MakeFinanceTable();
  for (const char* text : {
           "subtract(1200.5, 1000)",
           "divide(subtract([2019 of revenue], [2018 of revenue]), "
           "[2018 of revenue])",
           "add([2019 of gross profit], [2018 of gross profit])",
           "table_max(2019)",
           "table_sum(2018)",
           "table_average(2019)",
           "greater([2019 of revenue], [2018 of revenue])",
           "exp(2, 10)",
           "divide(1, 0)",  // Division by zero: identical error.
           "[2019 of revenue]",
           // Unknown cell ref: identical error.
           "subtract([2019 of warp drive], 1)",
       }) {
    ExpectProgramIdentical({ProgramType::kArithmetic, text}, t);
  }
}

// Concurrent first-touch: many threads execute indexed programs against
// one shared const Table whose index has NOT been warmed, so the lazy
// per-column std::call_once builds race. Run under
// `UCTR_SANITIZE=thread scripts/check.sh index_test` to let TSan check
// the synchronization; in any build mode the results must match the scan.
TEST(IndexConcurrencyTest, SharedConstTableAcrossThreads) {
  Table t = MedalTable();
  const std::string query =
      "SELECT nation FROM w WHERE gold >= 4 ORDER BY total DESC";
  auto expected = sql::ExecuteQuery(query, t, {.use_index = false});
  ASSERT_TRUE(expected.ok());
  const std::string want = DescribeOutcome(expected);

  constexpr int kThreads = 8;
  std::vector<std::string> got(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&t, &query, &got, i] {
        auto r = sql::ExecuteQuery(query, t, {.use_index = true});
        got[i] = DescribeOutcome(r);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], want) << "thread " << i;
  }
}

// Many threads run programs of all three families through Program::Execute
// against one shared const Table whose index has not been warmed, racing
// every lazy column build. Must be TSan-clean, and every thread must see
// the single-threaded scan's outcome.
TEST(IndexConcurrencyTest, AllFamiliesOnSharedConstTable) {
  Table table = uctr::testing::MakeNationsTable();
  const std::vector<Program> programs = {
      {ProgramType::kSql, "SELECT SUM([gold]) FROM w"},
      {ProgramType::kSql, "SELECT [nation] FROM w ORDER BY [total] DESC"},
      {ProgramType::kLogicalForm,
       "eq { hop { argmax { all_rows ; gold } ; nation } ; united states }"},
      {ProgramType::kLogicalForm, "most_greater { all_rows ; total ; 10 }"},
      {ProgramType::kArithmetic, "divide([2019 of x], 2)"},  // Fails at run.
  };
  Table scan_copy = table;
  scan_copy.set_index_enabled(false);
  std::vector<std::string> expected;
  for (const Program& p : programs) {
    expected.push_back(DescribeOutcome(p.Execute(scan_copy)));
  }

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int iter = 0; iter < 50; ++iter) {
          for (size_t i = 0; i < programs.size(); ++i) {
            if (DescribeOutcome(programs[i].Execute(table)) != expected[i]) {
              ++mismatches[t];
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// The span accessor must agree with the copying ColumnValues everywhere.
TEST(ColumnSpanTest, MatchesColumnValues) {
  Table t = FinanceTable();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    std::vector<Value> copies = t.ColumnValues(c);
    ColumnSpan span = t.Column(c);
    ASSERT_EQ(span.size(), copies.size());
    for (size_t r = 0; r < copies.size(); ++r) {
      EXPECT_EQ(span[r].type(), copies[r].type());
      EXPECT_EQ(span[r].ToDisplayString(), copies[r].ToDisplayString());
    }
  }
}

// RowIndexByName now reads the cached first column; exact, substring, and
// error behavior must be unchanged.
TEST(RowIndexByNameTest, IndexedLookupKeepsSemantics) {
  Table t = MedalTable();
  EXPECT_EQ(t.RowIndexByName("germany").ValueOrDie(), 1u);
  EXPECT_EQ(t.RowIndexByName("  USA  ").ValueOrDie(), 3u);
  EXPECT_EQ(t.RowIndexByName("swed").ValueOrDie(), 4u);  // substring
  EXPECT_FALSE(t.RowIndexByName("Atlantis").ok());
  // Mutation is visible through the name lookup too.
  *t.mutable_cell(1, 0) = Value::String("Prussia");
  EXPECT_EQ(t.RowIndexByName("Prussia").ValueOrDie(), 1u);
  EXPECT_FALSE(t.RowIndexByName("Germany").ok());
}

// ------------------------------------------------------------ linking index
//
// TableIndex::linking() answers three questions that used to be full-table
// scans; each is diffed here against that scan.

// Every WordTokens token of every non-null cell and every column name.
std::set<std::string> ScanTokens(const Table& t) {
  std::set<std::string> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (t.cell(r, c).is_null()) continue;
      for (std::string& tok : WordTokens(t.cell(r, c).ToDisplayString())) {
        out.insert(std::move(tok));
      }
    }
  }
  for (size_t c = 0; c < t.num_columns(); ++c) {
    for (std::string& tok : WordTokens(t.schema().column(c).name)) {
      out.insert(std::move(tok));
    }
  }
  return out;
}

bool ScanNearlyEqual(const Table& t, double x) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value& v = t.cell(r, c);
      if (v.is_number() && NearlyEqual(x, v.number())) return true;
    }
  }
  return false;
}

TEST(LinkingIndexTest, TokensAndCandidateRowsMatchScan) {
  Table t = FinanceTable();
  const std::set<std::string> tokens = ScanTokens(t);
  for (const std::string& tok : tokens) EXPECT_TRUE(t.index().HasToken(tok));
  for (const char* tok : {"profit", "1,234", "$1", "12", "100", "fy2021",
                          "w", "", "revenues", "-5"}) {
    EXPECT_EQ(t.index().HasToken(tok), tokens.count(tok) > 0) << tok;
  }
  // Candidate rows are exactly the rows holding one of the tokens (no two
  // of these tokens collide), ascending and each once.
  const std::vector<std::string> probe = {"$1,234", "revenue", "100%",
                                          "25", "cost", "nothing"};
  std::vector<uint32_t> hashes;
  for (const std::string& tok : probe) {
    hashes.push_back(TableIndex::TokenHash(tok));
  }
  for (size_t c = 0; c < t.num_columns(); ++c) {
    std::vector<uint32_t> want;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.cell(r, c).is_null()) continue;
      for (const std::string& tok :
           WordTokens(t.cell(r, c).ToDisplayString())) {
        if (std::find(probe.begin(), probe.end(), tok) != probe.end()) {
          want.push_back(static_cast<uint32_t>(r));
          break;
        }
      }
    }
    EXPECT_EQ(t.index().CandidateRows(c, hashes), want) << "column " << c;
  }
}

// Random number sets with ±0, ±infinity and NaN mixed in, probed at and
// around NearlyEqual's tolerance (absolute 1e-6, relative 1e-6) of every
// stored value, and at non-finite points.
TEST(LinkingIndexTest, NearlyEqualProbeMatchesScan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(91);
  for (int trial = 0; trial < 200; ++trial) {
    Table t("numbers", Schema({{"name", ColumnType::kText},
                               {"x", ColumnType::kNumber}}));
    std::vector<double> stored;
    size_t n = static_cast<size_t>(rng.UniformInt(0, 12));
    for (size_t i = 0; i < n; ++i) {
      double x;
      switch (rng.UniformInt(0, 6)) {
        case 0: x = rng.Bernoulli(0.5) ? 0.0 : -0.0; break;
        case 1: x = rng.Bernoulli(0.5) ? inf : -inf; break;
        case 2: x = nan; break;
        case 3: x = rng.UniformDouble(-1e15, 1e15); break;
        case 4: x = rng.UniformDouble(-1e-5, 1e-5); break;
        default: x = static_cast<double>(rng.UniformInt(-50, 50)); break;
      }
      stored.push_back(x);
      ASSERT_TRUE(t.AppendRow({Value::String("r" + std::to_string(i)),
                               Value::Number(x)})
                      .ok());
    }
    std::vector<double> probes = {0.0, -0.0, inf, -inf, nan, 1e15, -1e15,
                                  1e-6, -1e-6, 2e-6};
    for (double x : stored) {
      for (double k : {0.0, 0.5, 0.99, 1.0, 1.01, 1.5, 2.0, 2.5}) {
        probes.push_back(x + k * 1e-6 * std::abs(x));
        probes.push_back(x - k * 1e-6 * std::abs(x));
        probes.push_back(x + k * 1e-6);
        probes.push_back(x - k * 1e-6);
      }
    }
    for (double p : probes) {
      EXPECT_EQ(t.index().HasNearlyEqualNumber(p), ScanNearlyEqual(t, p))
          << "probe " << p << " trial " << trial;
    }
  }
}

// Warm() builds the column caches only; the first linking probe builds the
// linking index once, and later probes reuse it.
TEST(LinkingIndexTest, BuiltLazilyOnceAndNotByWarm) {
  obs::Counter* builds =
      obs::DefaultRegistry().counter("table_link_builds_total");
  obs::Histogram* build_us =
      obs::DefaultRegistry().histogram("table_link_build_us");
  Table t = MedalTable();
  const uint64_t before = builds->value();
  const uint64_t observed = build_us->count();
  t.WarmIndex();
  EXPECT_EQ(builds->value(), before);
  EXPECT_TRUE(t.index().HasToken("norway"));
  EXPECT_TRUE(t.index().HasNearlyEqualNumber(37));
  EXPECT_FALSE(t.index().HasNearlyEqualNumber(36));
  EXPECT_EQ(builds->value(), before + 1);
  EXPECT_EQ(build_us->count(), observed + 1);
  // A mutation drops the index; the next probe rebuilds from current cells.
  *t.mutable_cell(0, 0) = Value::String("Finland");
  EXPECT_FALSE(t.index().HasToken("norway"));
  EXPECT_TRUE(t.index().HasToken("finland"));
  EXPECT_EQ(builds->value(), before + 2);
}

// Concurrent first touch of the linking build: 8 threads probe one shared
// const Table whose linking index has not been built. The build must run
// exactly once (TSan-clean under `UCTR_SANITIZE=thread scripts/check.sh
// index_test`), and every thread must see the scan's answers.
TEST(LinkingIndexTest, ConcurrentFirstTouchBuildsOnce) {
  const Table table = FinanceTable();
  const std::set<std::string> tokens = ScanTokens(table);
  const std::vector<std::string> probe = {"revenue", "$1,234", "growth",
                                          "fy2019", "absent", "12.5%"};
  const std::vector<double> numbers = {1234, 25, 31, 12.5, 7, 100};
  std::vector<uint32_t> hashes;
  for (const std::string& tok : probe) {
    hashes.push_back(TableIndex::TokenHash(tok));
  }
  Table reference = table;
  std::vector<std::vector<uint32_t>> want_rows;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    want_rows.push_back(reference.index().CandidateRows(c, hashes));
  }
  obs::Counter* builds =
      obs::DefaultRegistry().counter("table_link_builds_total");
  const uint64_t before = builds->value();

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      workers.emplace_back([&, i] {
        const TableIndex& index = table.index();
        for (const std::string& tok : probe) {
          mismatches[i] += index.HasToken(tok) != (tokens.count(tok) > 0);
        }
        for (double x : numbers) {
          mismatches[i] +=
              index.HasNearlyEqualNumber(x) != ScanNearlyEqual(table, x);
        }
        for (size_t c = 0; c < table.num_columns(); ++c) {
          mismatches[i] += index.CandidateRows(c, hashes) != want_rows[c];
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(mismatches[i], 0) << "thread " << i;
  }
  EXPECT_EQ(builds->value(), before + 1);
}

}  // namespace
}  // namespace uctr
