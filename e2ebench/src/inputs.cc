#include "inputs.h"

#include <cmath>
#include <cstdio>
#include <set>

#include "common/json.h"
#include "common/rng.h"
#include "datasets/vocab.h"
#include "gen/generator.h"
#include "program/library.h"
#include "serve/result_cache.h"
#include "store/registry.h"

namespace e2e {

namespace {

using uctr::Rng;

/// A pronounceable one-token name, unique within a table: linking matches
/// sentence tokens against cells, so shared tokens between entities would
/// make a claim ambiguous in a way no real table intends.
std::string EntityName(Rng* rng, std::set<std::string>* used) {
  static const char* kSyllables[] = {
      "ka", "lo", "mi", "ra", "ten", "vo", "shi", "dar", "bel", "nu",
      "ga", "rin", "to", "sel", "ma", "dor", "pi", "lun", "ve", "zor",
      "qua", "fen", "li", "mo", "tar", "ki", "bro", "sa", "wen", "ul"};
  constexpr size_t kCount = sizeof(kSyllables) / sizeof(kSyllables[0]);
  while (true) {
    std::string name;
    int parts = static_cast<int>(rng->UniformInt(2, 3));
    for (int i = 0; i < parts; ++i) {
      name += kSyllables[rng->UniformInt(0, kCount - 1)];
    }
    if (used->insert(name).second) return name;
  }
}

std::string RenderNumber(const uctr::datasets::Topic::NumericColumn& col,
                         double value) {
  char buf[48];
  if (col.integral) {
    std::snprintf(buf, sizeof(buf), "%.0f", std::round(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", value);
  }
  return buf;
}

/// The shape (column count, categorical column or not) depends only on
/// the table's position, not on the seed, so the per-request linking cost
/// of a workload does not swing from seed to seed.
std::string MakeCsv(Rng* rng, const uctr::datasets::Topic& topic,
                    size_t rows, size_t position) {
  size_t numeric = std::min<size_t>(topic.numeric_columns.size(), 3);
  std::vector<size_t> cols =
      rng->SampleIndices(topic.numeric_columns.size(), numeric);
  bool category = !topic.category_values.empty() && position % 2 == 1;
  std::string csv = topic.entity_header;
  for (size_t c : cols) csv.append(",").append(topic.numeric_columns[c].header);
  if (category) csv.append(",").append(topic.category_header);
  csv += '\n';
  std::set<std::string> used;
  for (size_t r = 0; r < rows; ++r) {
    csv += EntityName(rng, &used);
    for (size_t c : cols) {
      const auto& col = topic.numeric_columns[c];
      csv.append(",").append(
          RenderNumber(col, rng->UniformDouble(col.lo, col.hi)));
    }
    if (category) {
      csv.append(",").append(topic.category_values[rng->UniformInt(
          0, topic.category_values.size() - 1)]);
    }
    csv += '\n';
  }
  return csv;
}

std::vector<uctr::Sample> Generate(Rng* rng, const uctr::Table& table,
                                   uctr::TaskType task, size_t samples) {
  uctr::GenerationConfig config;
  config.task = task;
  config.program_types =
      task == uctr::TaskType::kFactVerification
          ? std::vector<uctr::ProgramType>{uctr::ProgramType::kLogicalForm}
          : std::vector<uctr::ProgramType>{uctr::ProgramType::kSql,
                                           uctr::ProgramType::kArithmetic};
  config.samples_per_table = samples;
  config.use_table_to_text = false;
  config.use_text_to_table = false;
  static const uctr::TemplateLibrary library = uctr::TemplateLibrary::Builtin();
  uctr::Generator generator(config, &library, rng);
  return generator.GenerateFromTable(uctr::TableWithText{table, {}});
}

}  // namespace

std::vector<BenchTable> MakeTables(uint64_t seed, const TableShape& shape) {
  Rng rng(seed);
  const auto& topics =
      uctr::datasets::TopicsFor(uctr::datasets::Domain::kWikipedia);
  std::vector<BenchTable> out;
  for (size_t t = 0; t < shape.count; ++t) {
    const auto& topic = topics[t % std::min(shape.schemas, topics.size())];
    size_t rows = static_cast<size_t>(
        rng.UniformInt(shape.min_rows, shape.max_rows));
    BenchTable bt;
    bt.csv = MakeCsv(&rng, topic, rows, t);
    auto parsed = uctr::Table::FromCsv(bt.csv);
    if (!parsed.ok()) continue;  // cannot happen for generated CSV
    bt.table = std::move(parsed).ValueOrDie();
    bt.table.WarmIndex();
    bt.fingerprint =
        uctr::store::TableRegistry::EncodeTable(bt.table).fingerprint;
    std::vector<uctr::Sample> claims = Generate(
        &rng, bt.table, uctr::TaskType::kFactVerification,
        shape.samples_per_task);
    std::vector<uctr::Sample> questions = Generate(
        &rng, bt.table, uctr::TaskType::kQuestionAnswering,
        shape.samples_per_task);
    // Distinct under the result cache's own query normalization, so a
    // "distinct" stream really misses the cache.
    std::set<std::string> seen;
    auto take = [&](const uctr::Sample& s, bool verify) {
      std::string key = (verify ? "v:" : "a:") +
                        uctr::serve::ResultCache::NormalizeQuery(s.sentence);
      if (!seen.insert(key).second) return;
      Query q;
      q.verify = verify;
      q.text = s.sentence;
      q.gold = verify ? uctr::LabelToString(s.label) : s.answer;
      q.program = s.program;
      bt.queries.push_back(std::move(q));
    };
    for (size_t i = 0; i < std::max(claims.size(), questions.size()); ++i) {
      if (i < claims.size()) take(claims[i], true);
      if (i < questions.size()) take(questions[i], false);
    }
    out.push_back(std::move(bt));
  }
  return out;
}

std::string RequestBody(const Query& query, const BenchTable& table,
                        bool by_ref) {
  std::string body = query.verify ? "\"op\":\"verify\"" : "\"op\":\"answer\"";
  if (by_ref) {
    body += ",\"table_ref\":" + uctr::json::Quote(table.fingerprint);
  } else {
    body += ",\"table\":" + uctr::json::Quote(table.csv);
  }
  body += ",\"query\":" + uctr::json::Quote(query.text) + "}";
  return body;
}

}  // namespace e2e
