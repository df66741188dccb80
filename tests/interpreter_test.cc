// Focused unit tests of NlInterpreter slot binding: type constraints,
// distinct-column assignment, value coverage thresholds, ordinals, and
// ranking behaviour; and differential tests of the linking index against
// the full-row scans it replaced.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/numeric.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "model/features.h"
#include "model/interpreter.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "program/sampler.h"
#include "program/template.h"
#include "store/codec.h"
#include "table/index.h"
#include "tests/test_util.h"

namespace uctr::model {
namespace {

using uctr::testing::MakeFinanceTable;
using uctr::testing::MakeNationsTable;

NlInterpreter SingleTemplate(const char* pattern, const char* reasoning = "",
                             ProgramType type = ProgramType::kLogicalForm) {
  auto tmpl = ProgramTemplate::Make(type, pattern, reasoning).ValueOrDie();
  return NlInterpreter({tmpl});
}

TEST(InterpreterBindingTest, TypeConstraintExcludesTextColumns) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { max { all_rows ; {c1:num} } ; {derive} }");
  // "nation" is mentioned but is a text column; "gold" must win.
  auto r = interp.Interpret("The highest gold in any nation is 10.", t,
                            TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("c1"), "gold");
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, DistinctColumnsForDistinctSlots) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The silver of the row whose nation is china is 6.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("c1"), "nation");
  EXPECT_EQ(r->bindings.at("c2"), "silver");
  EXPECT_NE(r->bindings.at("c1"), r->bindings.at("c2"));
}

TEST(InterpreterBindingTest, ValueMustBeMentioned) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { count { filter_eq { all_rows ; {c1} ; {v1@c1} } } ; {derive} }");
  // No cell value of any column appears in this sentence.
  auto r = interp.Interpret("The number of rows is 5.", t,
                            TaskType::kFactVerification);
  EXPECT_FALSE(r.ok());
}

TEST(InterpreterBindingTest, MultiTokenValueBinds) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The total of the row whose nation is united states is 30.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("v1"), "united states");
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, OrdinalWordsBind) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { nth_argmax { all_rows ; {c1:num} ; {ord1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The nation with the 3rd highest total is japan.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings.at("ord1"), "3");
  EXPECT_TRUE(r->result.scalar().boolean());

  auto spelled = interp.Interpret(
      "The nation with the second highest total is china.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(spelled.ok());
  EXPECT_EQ(spelled->bindings.at("ord1"), "2");
}

TEST(InterpreterBindingTest, NoOrdinalMentionFailsOrdinalSlot) {
  Table t = MakeNationsTable();
  NlInterpreter interp = SingleTemplate(
      "eq { nth_max { all_rows ; {c1:num} ; {ord1} } ; {derive} }");
  EXPECT_FALSE(interp.Interpret("The highest gold is 10.", t,
                                TaskType::kFactVerification)
                   .ok());
}

TEST(InterpreterBindingTest, ClaimTemplatesIgnoreQuestions) {
  Table t = MakeNationsTable();
  NlInterpreter claims(BuiltinLogicTemplates());
  EXPECT_TRUE(claims
                  .RankAll("Which nation has the highest gold?", t,
                           TaskType::kQuestionAnswering)
                  .empty());
  NlInterpreter questions(BuiltinSqlTemplates());
  EXPECT_TRUE(questions
                  .RankAll("The gold of china is 8.", t,
                           TaskType::kFactVerification)
                  .empty());
}

TEST(InterpreterBindingTest, RankingPrefersBetterCoverage) {
  Table t = MakeNationsTable();
  NlInterpreter interp(BuiltinLogicTemplates());
  auto ranked = interp.RankAll(
      "The number of rows whose gold is greater than 5 is 2.", t,
      TaskType::kFactVerification);
  ASSERT_GE(ranked.size(), 2u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
  // The top reading is the count-greater template.
  EXPECT_NE(ranked[0].program.text.find("count"), std::string::npos);
  EXPECT_NE(ranked[0].program.text.find("filter_greater"),
            std::string::npos);
}

TEST(InterpreterBindingTest, MoneyValuesBindOnFinanceTables) {
  Table t = MakeFinanceTable();
  NlInterpreter interp = SingleTemplate(
      "eq { hop { filter_eq { all_rows ; {c1:text} ; {v1@c1} } ; {c2} } ; "
      "{derive} }");
  auto r = interp.Interpret(
      "The 2019 of the row whose item is gross profit is 400.5.", t,
      TaskType::kFactVerification);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->result.scalar().boolean());
}

TEST(InterpreterBindingTest, ClaimedValueHandlesHedgesAndNegation) {
  EXPECT_EQ(NlInterpreter::ClaimedValue("The total is about 30."), "30");
  EXPECT_EQ(NlInterpreter::ClaimedValue("The total is roughly 30."), "30");
  EXPECT_EQ(NlInterpreter::ClaimedValue("The total is not 30."), "30");
  EXPECT_EQ(NlInterpreter::ClaimedValue("The counts were 1 and it is 2!"),
            "2");
}

// A row slot ahead of every column slot on a table without columns has no
// row-name column to read: the slot fails instead of indexing column 0.
TEST(InterpreterBindingTest, RowSlotOnTableWithoutColumnsFails) {
  Table empty;
  auto tmpl = ProgramTemplate::Make(
                  ProgramType::kLogicalForm,
                  "eq { hop { filter_eq { all_rows ; name ; {r1} } ; {c1} } "
                  "; {derive} }")
                  .ValueOrDie();
  auto r = NlInterpreter::BindTemplate(tmpl, "The gold of china is 8.", empty,
                                       TaskType::kFactVerification);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(InterpreterBindingTest, EmptyTableYieldsNoInterpretations) {
  Table empty;
  NlInterpreter interp(BuiltinLogicTemplates());
  EXPECT_TRUE(interp
                  .RankAll("The gold of china is 8.", empty,
                           TaskType::kFactVerification)
                  .empty());
}

// ------------------------------------------------------------------------
// Linking differential tests.
//
// Slot binding and table alignment used to scan every row of the table on
// every request; they now probe the table's linking index (TableIndex::
// linking()). The scans are kept below as test-only oracles, copied from
// the code they replaced, and the tests require the production results to
// equal theirs: every binding of every built-in template, and whole
// FeatureExtractor::Extract vectors.

double OracleCoverage(const std::string& phrase,
                      const std::set<std::string>& sentence_tokens) {
  std::vector<std::string> tokens = WordTokens(phrase);
  if (tokens.empty()) return 0.0;
  size_t hits = 0;
  for (const std::string& t : tokens) {
    if (sentence_tokens.count(t)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(tokens.size());
}

int OracleOrdinal(const std::vector<std::string>& tokens) {
  static const std::pair<const char*, int> kWords[] = {
      {"first", 1},  {"second", 2}, {"third", 3}, {"fourth", 4},
      {"fifth", 5},  {"1st", 1},    {"2nd", 2},   {"3rd", 3},
      {"4th", 4},    {"5th", 5},
  };
  for (const std::string& t : tokens) {
    for (const auto& [word, n] : kWords) {
      if (t == word) return n;
    }
  }
  return 0;
}

// The full-row scan binder: every non-null cell of the slot's column is
// scored, in row order, with a strict `>`.
Result<std::map<std::string, std::string>> OracleBind(
    const ProgramTemplate& tmpl, const std::string& sentence,
    const Table& table, TaskType task) {
  std::vector<std::string> tokens = WordTokens(sentence);
  std::set<std::string> token_set(tokens.begin(), tokens.end());
  std::map<std::string, std::string> bindings;
  std::map<std::string, size_t> column_of;
  std::set<size_t> used_columns;
  std::map<std::string, std::set<std::string>> used_values;
  auto best_cell = [&](size_t c, const std::set<std::string>& used) {
    double best = 0.0;
    std::string best_value;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value& v = table.cell(r, c);
      if (v.is_null()) continue;
      std::string display = v.ToDisplayString();
      if (used.count(display)) continue;
      double score = OracleCoverage(display, token_set);
      if (score > best) {
        best = score;
        best_value = display;
      }
    }
    return std::make_pair(best, best_value);
  };
  for (const Placeholder& p : tmpl.placeholders) {
    switch (p.kind) {
      case Placeholder::Kind::kColumn: {
        double best = 0.0;
        size_t best_col = table.num_columns();
        for (size_t c = 0; c < table.num_columns(); ++c) {
          if (used_columns.count(c)) continue;
          if (p.has_type_constraint &&
              table.schema().column(c).type != p.column_type) {
            continue;
          }
          double score =
              OracleCoverage(table.schema().column(c).name, token_set);
          if (score > best) {
            best = score;
            best_col = c;
          }
        }
        if (best_col == table.num_columns() || best <= 0.0) {
          return Status::NotFound("no column matches slot '" + p.id + "'");
        }
        used_columns.insert(best_col);
        column_of[p.id] = best_col;
        bindings[p.id] = table.schema().column(best_col).name;
        break;
      }
      case Placeholder::Kind::kValue: {
        auto it = column_of.find(p.column_id);
        if (it == column_of.end()) {
          return Status::Internal("value slot before its column slot");
        }
        auto [best, value] = best_cell(it->second, used_values[p.column_id]);
        if (best < 0.5) {
          return Status::NotFound("no cell value matches slot '" + p.id +
                                  "'");
        }
        used_values[p.column_id].insert(value);
        bindings[p.id] = value;
        break;
      }
      case Placeholder::Kind::kRow: {
        if (table.num_columns() == 0) {
          return Status::NotFound("no row name column for slot '" + p.id +
                                  "'");
        }
        auto [best, name] = best_cell(0, used_values["__rows__"]);
        if (best < 0.5) {
          return Status::NotFound("no row name matches slot '" + p.id + "'");
        }
        used_values["__rows__"].insert(name);
        bindings[p.id] = name;
        break;
      }
      case Placeholder::Kind::kOrdinal: {
        int n = OracleOrdinal(tokens);
        if (n == 0) {
          return Status::NotFound("no ordinal mention in the sentence");
        }
        bindings[p.id] = std::to_string(n);
        break;
      }
      case Placeholder::Kind::kDerive: {
        if (task != TaskType::kFactVerification) {
          return Status::InvalidArgument("derive slot only binds for claims");
        }
        std::string claimed = NlInterpreter::ClaimedValue(sentence);
        if (claimed.empty()) {
          return Status::NotFound("no claimed value in the sentence");
        }
        bindings[p.id] = claimed;
        break;
      }
    }
  }
  return bindings;
}

// RankAll over OracleBind: the best interpretation, as the interpreter
// features read it.
Result<Interpretation> OracleInterpret(
    const std::vector<ProgramTemplate>& templates,
    const std::string& sentence, const Table& table, TaskType task) {
  nlgen::NlGeneratorConfig config;
  config.stochastic = false;
  nlgen::NlGenerator canonical(config);
  std::vector<Interpretation> out;
  for (size_t i = 0; i < templates.size(); ++i) {
    const ProgramTemplate& tmpl = templates[i];
    bool is_claim_template = tmpl.type == ProgramType::kLogicalForm;
    if (is_claim_template != (task == TaskType::kFactVerification)) continue;
    auto bindings = OracleBind(tmpl, sentence, table, task);
    if (!bindings.ok()) continue;
    auto filled = tmpl.Fill(*bindings);
    if (!filled.ok()) continue;
    Interpretation interp;
    interp.program.type = tmpl.type;
    interp.program.text = *filled;
    interp.bindings = *bindings;
    interp.template_index = i;
    auto executed = interp.program.Execute(table);
    if (!executed.ok()) continue;
    interp.result = *executed;
    auto re_realized = canonical.GenerateCanonical(interp.program);
    if (!re_realized.ok()) continue;
    interp.score = TokenF1(*re_realized, sentence);
    out.push_back(std::move(interp));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Interpretation& a, const Interpretation& b) {
                     return a.score > b.score;
                   });
  if (out.empty()) return Status::NotFound("no template binds and executes");
  return out.front();
}

// The table-wide std::set scan of FeatureExtractor::AddAlignment. NaN cells
// stay out of the number set: NearlyEqual never holds for NaN, and a NaN
// inside a std::set<double> breaks its strict weak ordering.
void OracleAlignment(const Sample& sample, size_t dim, FeatureVector* out) {
  auto add = [&](const std::string& name, float value = 1.0f) {
    out->push_back({static_cast<uint32_t>(HashFeature(name) % dim), value});
  };
  std::vector<std::string> tokens = WordTokens(sample.sentence);
  if (tokens.empty()) return;
  const Table& table = sample.evidence_table();
  std::set<std::string> table_tokens;
  std::set<double> table_numbers;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value& v = table.cell(r, c);
      if (v.is_null()) continue;
      for (const std::string& t : WordTokens(v.ToDisplayString())) {
        table_tokens.insert(t);
      }
      if (v.is_number() && !std::isnan(v.number())) {
        table_numbers.insert(v.number());
      }
    }
  }
  for (size_t c = 0; c < table.num_columns(); ++c) {
    for (const std::string& t : WordTokens(table.schema().column(c).name)) {
      table_tokens.insert(t);
    }
  }
  std::set<std::string> text_tokens;
  std::set<double> text_numbers;
  for (const std::string& s : sample.paragraph) {
    for (const std::string& t : WordTokens(s)) {
      text_tokens.insert(t);
      if (auto n = ParseNumber(t)) text_numbers.insert(*n);
    }
  }
  size_t table_hits = 0, text_hits = 0;
  size_t num_match = 0, num_miss = 0;
  for (const std::string& t : tokens) {
    if (table_tokens.count(t)) ++table_hits;
    if (text_tokens.count(t)) ++text_hits;
    if (auto n = ParseNumber(t)) {
      bool matched = false;
      for (double x : table_numbers) {
        if (NearlyEqual(*n, x, 1e-6, 1e-6)) matched = true;
      }
      for (double x : text_numbers) {
        if (NearlyEqual(*n, x, 1e-6, 1e-6)) matched = true;
      }
      (matched ? num_match : num_miss) += 1;
    }
  }
  double coverage = static_cast<double>(table_hits) / tokens.size();
  add("align:table_cov", static_cast<float>(coverage));
  add("align:table_cov_b" + std::to_string(static_cast<int>(coverage * 5)));
  add("align:text_cov",
      static_cast<float>(static_cast<double>(text_hits) / tokens.size()));
  add("align:num_match", static_cast<float>(num_match));
  add("align:num_miss", static_cast<float>(num_miss));
  if (num_miss > 0) add("align:has_num_miss");
  if (!sample.paragraph.empty()) add("align:has_text");
}

// Extract with every table scan done by the oracles: the bias and lexical
// features come from the extractor itself (they never read the table).
FeatureVector OracleExtract(const Sample& sample, const FeatureConfig& config,
                            const std::vector<ProgramTemplate>& templates) {
  FeatureConfig lexical_only = config;
  lexical_only.alignment = false;
  lexical_only.interpreter = false;
  FeatureVector out = FeatureExtractor(lexical_only, nullptr).Extract(sample);
  if (config.alignment) OracleAlignment(sample, config.dim, &out);
  if (!config.interpreter || sample.task != TaskType::kFactVerification) {
    return out;
  }
  auto add = [&](const std::string& name, float value = 1.0f) {
    out.push_back(
        {static_cast<uint32_t>(HashFeature(name) % config.dim), value});
  };
  auto interp = OracleInterpret(templates, sample.sentence,
                                sample.evidence_table(),
                                TaskType::kFactVerification);
  if (!interp.ok()) {
    add("interp:none");
    return out;
  }
  bool verdict = interp->result.scalar().boolean();
  add("interp:found");
  add("interp:score", static_cast<float>(interp->score));
  add(verdict ? "interp:true" : "interp:false",
      static_cast<float>(interp->score));
  add(verdict ? "interp:true_flag" : "interp:false_flag");
  if (interp->score > 0.75) add(verdict ? "interp:true_hi" : "interp:false_hi");
  return out;
}

std::string DescribeBinding(
    const Result<std::map<std::string, std::string>>& r) {
  if (!r.ok()) return "status{" + r.status().ToString() + "}";
  std::string out = "ok{";
  for (const auto& [id, value] : *r) out += id + "=" + value + ";";
  return out + "}";
}

std::string DescribeFeatures(const FeatureVector& v) {
  std::string out;
  for (const Feature& f : v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%u:%a ", f.index,
                  static_cast<double>(f.value));
    out += buf;
  }
  return out;
}

std::vector<ProgramTemplate> AllBuiltinTemplates() {
  std::vector<ProgramTemplate> all = BuiltinLogicTemplates();
  for (auto* family : {&BuiltinSqlTemplates, &BuiltinArithTemplates}) {
    for (ProgramTemplate& t : family()) all.push_back(std::move(t));
  }
  return all;
}

// Binds every built-in template to every sentence under both tasks, and
// extracts claim and question features with and without a paragraph,
// through production and oracle; returns the number of bindings that
// succeeded (so callers can require the inputs to exercise binding).
size_t ExpectLinkingMatchesScan(const Table& table,
                                const std::vector<std::string>& sentences) {
  static const std::vector<ProgramTemplate> kTemplates = AllBuiltinTemplates();
  static const std::vector<ProgramTemplate> kClaimTemplates =
      BuiltinLogicTemplates();
  NlInterpreter interpreter(kClaimTemplates);
  FeatureConfig config;
  FeatureExtractor extractor(config, &interpreter);
  size_t bound = 0;
  for (const std::string& sentence : sentences) {
    for (TaskType task :
         {TaskType::kFactVerification, TaskType::kQuestionAnswering}) {
      for (const ProgramTemplate& tmpl : kTemplates) {
        auto got = NlInterpreter::BindTemplate(tmpl, sentence, table, task);
        auto want = OracleBind(tmpl, sentence, table, task);
        EXPECT_EQ(DescribeBinding(got), DescribeBinding(want))
            << "template: " << tmpl.pattern << "\nsentence: " << sentence
            << "\ntable:\n" << table.ToCsv();
        bound += got.ok();
      }
      for (bool with_text : {false, true}) {
        Sample sample;
        sample.task = task;
        sample.shared_table = &table;
        sample.sentence = sentence;
        if (with_text) {
          sample.paragraph = {"The total was 12 in 2019, up from $1,234.",
                              "alpha beta 7 -5 12% 1e3"};
        }
        EXPECT_EQ(DescribeFeatures(extractor.Extract(sample)),
                  DescribeFeatures(
                      OracleExtract(sample, config, kClaimTemplates)))
            << "sentence: " << sentence << "\ntable:\n" << table.ToCsv();
      }
    }
  }
  return bound;
}

// Sentences the generator itself would pose over `table`: a sampled program
// of every built-in template (claims for {derive} templates), realized.
std::vector<std::string> GeneratedSentences(const Table& table, Rng* rng,
                                            size_t cap) {
  static const std::vector<ProgramTemplate> kTemplates = AllBuiltinTemplates();
  ProgramSampler sampler(rng);
  nlgen::NlGenerator realizer;
  std::vector<std::string> out;
  for (const ProgramTemplate& tmpl : kTemplates) {
    if (out.size() >= cap) break;
    auto sampled = tmpl.HasDerive()
                       ? sampler.SampleClaim(tmpl, table, rng->Bernoulli(0.5))
                       : sampler.Sample(tmpl, table);
    if (!sampled.ok()) continue;
    auto sentence = realizer.Generate(sampled->program, rng);
    if (sentence.ok()) out.push_back(*sentence);
  }
  return out;
}

TEST(LinkingDifferentialTest, FixturesMatchScan) {
  Rng rng(7);
  size_t bound = 0;
  for (const Table& table : {MakeNationsTable(), MakeFinanceTable()}) {
    std::vector<std::string> sentences = GeneratedSentences(table, &rng, 40);
    for (const char* s :
         {"The silver of the row whose nation is china is 6.",
          "The total of the row whose nation is united states is 30.",
          "The nation with the 3rd highest total is japan.",
          "What was the 2019 of the row whose item is gross profit?",
          "The 2019 of revenue is $1,200.5 and the cost of sales is 800.",
          "states united china japan germany france gold 5 8 10",
          "", "?!", "The 2018 of stockholders' equity is 2,000."}) {
      sentences.push_back(s);
    }
    bound += ExpectLinkingMatchesScan(table, sentences);
  }
  EXPECT_GT(bound, 100u);
}

// Cells drawn from a small vocabulary: duplicate display values (so
// `used_values` excludes real candidates), permutations that tie on
// coverage ("alpha beta" / "beta alpha"), nulls, multi-token cells, case
// variants, and currency / negative / percent / exponent tokens.
Table RandomLinkTable(Rng* rng) {
  static const std::vector<std::string> kText = {
      "alpha", "beta", "alpha beta", "beta alpha", "gamma delta", "delta",
      "alpha alpha", "Alpha", "ALPHA beta", "beta gamma alpha", "", "n/a",
      "-", "$1,234", "-5", "12%", "1e3", "7", "north alpha", "alpha 7"};
  static const std::vector<std::string> kNumber = {
      "$1,234", "-5", "12%", "1e3", "7", "1,234", "12", "5", "", "-5", "0.5"};
  size_t rows = static_cast<size_t>(rng->UniformInt(1, 30));
  std::vector<std::string> header = {"name", "team alpha", "score",
                                     "gold medals"};
  std::vector<std::vector<std::string>> data;
  for (size_t r = 0; r < rows; ++r) {
    data.push_back({rng->Choice(kText), rng->Choice(kText),
                    rng->Choice(kNumber), rng->Choice(kNumber)});
  }
  return Table::FromStrings(header, data, "random").ValueOrDie();
}

std::vector<std::string> RandomSentences(Rng* rng, size_t n) {
  static const std::vector<std::string> kWords = {
      "the", "of", "row", "whose", "is", "what", "was", "name", "team",
      "score", "gold", "medals", "alpha", "beta", "gamma", "delta", "north",
      "$1,234", "-5", "12%", "1e3", "7", "1,234", "12", "5", "second",
      "third", "highest", "total", "number", "rows", "greater", "than"};
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    std::string s;
    size_t words = static_cast<size_t>(rng->UniformInt(1, 10));
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) s += " ";
      s += rng->Choice(kWords);
    }
    if (rng->Bernoulli(0.5)) s += " is " + rng->Choice(kWords);
    out.push_back(s + (rng->Bernoulli(0.5) ? "." : "?"));
  }
  return out;
}

TEST(LinkingDifferentialTest, RandomizedTablesMatchScan) {
  Rng rng(20231);
  size_t bound = 0;
  for (int i = 0; i < 24; ++i) {
    Table table = RandomLinkTable(&rng);
    std::vector<std::string> sentences = RandomSentences(&rng, 8);
    for (std::string& s : GeneratedSentences(table, &rng, 8)) {
      sentences.push_back(std::move(s));
    }
    bound += ExpectLinkingMatchesScan(table, sentences);
  }
  EXPECT_GT(bound, 500u);
}

// Cells of ±0, ±infinity, NaN and magnitudes near 1e15, built from
// Value::Number (no surface text) and then carried through the table codec,
// which keeps them bit for bit. Claims name numbers at the edge of
// NearlyEqual's 1e-6 relative tolerance around 1e15.
TEST(LinkingDifferentialTest, NonFiniteAndLargeNumbersMatchScan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> kColumns = {
      {0.0, -0.0, 1e15, 1e15 + 1, -1e15, 999999999999999.0, 1234.5, 5e-7},
      {nan, 1e15, 7.0, -5.0},
      {inf, 12.0, 0.0},
      {-inf, 1e15},
      {nan, nan},
      {inf, -inf, nan},
  };
  const std::vector<std::string> kSentences = {
      "The value of the row whose name is r1 is 1000000000000000.",
      "The value of the row whose name is r0 is 0.",
      "The value of r0 is -0 and r2 is 1000001000001000.",
      "The value of r2 is 1000001000002000.",
      "The value of r3 is 999999000000000 or 999998999999999.",
      "The value of r4 is 0.000001 not 0.0000011 nor -0.0000015.",
      "The value of r5 is 1234.5 or 1234.501 or 1234.5012346.",
      "The value of the row whose name is nan is inf.",
      "The highest value is 7.",
      "The number of rows whose value is greater than 5 is 2.",
  };
  for (const std::vector<double>& numbers : kColumns) {
    Table table("numbers", Schema({{"name", ColumnType::kText},
                                   {"value", ColumnType::kNumber}}));
    for (size_t r = 0; r < numbers.size(); ++r) {
      ASSERT_TRUE(table
                      .AppendRow({Value::String("r" + std::to_string(r)),
                                  Value::Number(numbers[r])})
                      .ok());
    }
    ExpectLinkingMatchesScan(table, kSentences);
    auto decoded = store::Codec::Decode(store::Codec::Encode(table));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->num_rows(), numbers.size());
    for (size_t r = 0; r < numbers.size(); ++r) {
      const Value& v = decoded->cell(r, 1);
      ASSERT_TRUE(v.is_number());
      EXPECT_EQ(std::isnan(v.number()), std::isnan(numbers[r]));
      if (!std::isnan(numbers[r])) {
        EXPECT_EQ(v.number(), numbers[r]);
        EXPECT_EQ(std::signbit(v.number()), std::signbit(numbers[r]));
      }
    }
    ExpectLinkingMatchesScan(*decoded, kSentences);
  }
}

// "tok52431" and "tok57522" are distinct tokens with the same 32-bit
// TableIndex::TokenHash (found by a birthday search over "tok<N>"). A
// sentence naming one must neither bind nor align to a cell holding the
// other: the postings hit is re-checked against the cell's text.
TEST(LinkingDifferentialTest, HashCollisionIsRecheckedAgainstText) {
  ASSERT_NE(std::string("tok52431"), std::string("tok57522"));
  ASSERT_EQ(TableIndex::TokenHash("tok52431"),
            TableIndex::TokenHash("tok57522"));
  Table table =
      Table::FromCsv("name,score\ntok52431,3\nbeta,4\ntok57522 beta,5\n")
          .ValueOrDie();
  NlInterpreter interp(BuiltinLogicTemplates());
  const std::string claim =
      "The score of the row whose name is tok57522 is 3.";
  // Only row 2 really shares a token with the claim; row 0 collides.
  auto r = NlInterpreter::BindTemplate(
      ProgramTemplate::Make(ProgramType::kLogicalForm,
                            "eq { hop { filter_eq { all_rows ; {c1:text} ; "
                            "{v1@c1} } ; {c2} } ; {derive} }")
          .ValueOrDie(),
      claim, table, TaskType::kFactVerification);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->at("v1"), "tok57522 beta");

  Table alone = Table::FromCsv("name,score\ntok52431,3\n").ValueOrDie();
  EXPECT_EQ(alone.index().CandidateRows(0, {TableIndex::TokenHash(
                                               "tok57522")}),
            std::vector<uint32_t>{0});
  EXPECT_FALSE(alone.index().HasToken("tok57522"));
  EXPECT_TRUE(alone.index().HasToken("tok52431"));
  ExpectLinkingMatchesScan(table, {claim, "tok52431 is 3."});
  ExpectLinkingMatchesScan(alone, {claim, "tok57522 tok52431 is 3."});
}

}  // namespace
}  // namespace uctr::model
