#include "model/interpreter.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "table/index.h"

namespace uctr::model {

namespace {

/// Fraction of `phrase` tokens that occur in `sentence_tokens`.
double CoverageScore(const std::string& phrase,
                     const std::set<std::string>& sentence_tokens) {
  std::vector<std::string> tokens = WordTokens(phrase);
  if (tokens.empty()) return 0.0;
  size_t hits = 0;
  for (const std::string& t : tokens) {
    if (sentence_tokens.count(t)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(tokens.size());
}

/// Ordinal mention in the sentence ("2nd", "third", ...), or 0.
int FindOrdinal(const std::vector<std::string>& tokens) {
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

nlgen::NlGeneratorConfig CanonicalConfig() {
  nlgen::NlGeneratorConfig config;
  config.stochastic = false;
  return config;
}

}  // namespace

NlInterpreter::NlInterpreter(std::vector<ProgramTemplate> templates)
    : templates_(std::move(templates)),
      canonical_generator_(CanonicalConfig()) {}

std::string NlInterpreter::ClaimedValue(const std::string& sentence) {
  std::string lowered = ToLower(sentence);
  size_t pos = std::string::npos;
  size_t verb_len = 0;
  for (std::string_view verb : {" is ", " was ", " are ", " were "}) {
    size_t p = lowered.rfind(verb);
    if (p != std::string::npos && (pos == std::string::npos || p > pos)) {
      pos = p;
      verb_len = verb.size();
    }
  }
  if (pos == std::string::npos) return "";
  std::string tail = Trim(sentence.substr(pos + verb_len));
  // Strip qualifiers ("about", "not", ...) that precede the value.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::string_view qualifier :
         {"about ", "approximately ", "around ", "roughly ", "not ",
          "the same as ", "equal to "}) {
      if (tail.size() > qualifier.size() &&
          EqualsIgnoreCase(tail.substr(0, qualifier.size()), qualifier)) {
        tail = Trim(tail.substr(qualifier.size()));
        changed = true;
      }
    }
  }
  while (!tail.empty() &&
         (tail.back() == '.' || tail.back() == '?' || tail.back() == '!')) {
    tail.pop_back();
  }
  return Trim(tail);
}

/// The sentence side of linking, computed once per (sentence, table) and
/// shared by every template RankAll binds.
struct NlInterpreter::SentenceLinks {
  SentenceLinks(const std::string& sentence, const Table& table)
      : sentence(sentence),
        table(table),
        tokens(WordTokens(sentence)),
        token_set(tokens.begin(), tokens.end()),
        scored(table.num_columns()) {
    for (const std::string& t : token_set) {
      hashes.push_back(TableIndex::TokenHash(t));
    }
  }

  /// Rows of column `c` whose display string covers a positive share of
  /// its tokens in the sentence, ascending, with that share. Rows missing
  /// here cover nothing.
  const std::vector<std::pair<size_t, double>>& Scored(size_t c) {
    if (!scored[c].has_value()) {
      const TableIndex& index = table.index();
      const TableIndex::Column& cache = index.column(c);
      std::vector<std::pair<size_t, double>>& rows = scored[c].emplace();
      for (uint32_t r : index.CandidateRows(c, hashes)) {
        double score = CoverageScore(cache.display[r], token_set);
        if (score > 0.0) rows.emplace_back(r, score);
      }
    }
    return *scored[c];
  }

  /// The display string of column `c` that covers the most of itself,
  /// skipping those in `used`; the first row wins a tie.
  std::pair<double, std::string> Best(size_t c,
                                      const std::set<std::string>& used) {
    const TableIndex::Column& cache = table.index().column(c);
    double best = 0.0;
    std::string best_value;
    for (const auto& [r, score] : Scored(c)) {
      if (score > best && !used.count(cache.display[r])) {
        best = score;
        best_value = cache.display[r];
      }
    }
    return {best, best_value};
  }

  const std::string& sentence;
  const Table& table;
  std::vector<std::string> tokens;
  std::set<std::string> token_set;
  std::vector<uint32_t> hashes;
  std::vector<std::optional<std::vector<std::pair<size_t, double>>>> scored;
};

Result<std::map<std::string, std::string>> NlInterpreter::BindTemplate(
    const ProgramTemplate& tmpl, const std::string& sentence,
    const Table& table, TaskType task) {
  SentenceLinks links(sentence, table);
  return Bind(tmpl, &links, task);
}

Result<std::map<std::string, std::string>> NlInterpreter::Bind(
    const ProgramTemplate& tmpl, SentenceLinks* links, TaskType task) {
  const Table& table = links->table;
  std::map<std::string, std::string> bindings;
  std::map<std::string, size_t> column_of;
  std::set<size_t> used_columns;
  std::map<std::string, std::set<std::string>> used_values;  // per column id

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
              CoverageScore(table.schema().column(c).name, links->token_set);
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
        auto [best, best_value] =
            links->Best(it->second, used_values[p.column_id]);
        if (best < 0.5) {
          return Status::NotFound("no cell value matches slot '" + p.id +
                                  "'");
        }
        used_values[p.column_id].insert(best_value);
        bindings[p.id] = best_value;
        break;
      }
      case Placeholder::Kind::kRow: {
        if (table.num_columns() == 0) {
          return Status::NotFound("no row name column for slot '" + p.id +
                                  "'");
        }
        auto [best, best_name] = links->Best(0, used_values["__rows__"]);
        if (best < 0.5) {
          return Status::NotFound("no row name matches slot '" + p.id + "'");
        }
        used_values["__rows__"].insert(best_name);
        bindings[p.id] = best_name;
        break;
      }
      case Placeholder::Kind::kOrdinal: {
        int n = FindOrdinal(links->tokens);
        if (n == 0) {
          return Status::NotFound("no ordinal mention in the sentence");
        }
        bindings[p.id] = std::to_string(n);
        break;
      }
      case Placeholder::Kind::kDerive: {
        if (task != TaskType::kFactVerification) {
          return Status::InvalidArgument(
              "derive slot only binds for claims");
        }
        std::string claimed = ClaimedValue(links->sentence);
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

std::vector<Interpretation> NlInterpreter::RankAll(
    const std::string& sentence, const Table& table, TaskType task,
    const ExecOptions& exec) const {
  std::vector<Interpretation> out;
  SentenceLinks links(sentence, table);
  for (size_t i = 0; i < templates_.size(); ++i) {
    const ProgramTemplate& tmpl = templates_[i];
    // Claim templates only read claims, question templates only questions.
    bool is_claim_template = tmpl.type == ProgramType::kLogicalForm;
    if (is_claim_template != (task == TaskType::kFactVerification)) continue;

    auto bindings = Bind(tmpl, &links, task);
    if (!bindings.ok()) continue;
    auto filled = tmpl.Fill(bindings.ValueOrDie());
    if (!filled.ok()) continue;

    Interpretation interp;
    interp.program.type = tmpl.type;
    interp.program.text = std::move(filled).ValueOrDie();
    interp.bindings = std::move(bindings).ValueOrDie();
    interp.template_index = i;

    auto executed = interp.program.Execute(table, exec);
    if (!executed.ok()) continue;
    interp.result = std::move(executed).ValueOrDie();

    auto re_realized = canonical_generator_.GenerateCanonical(interp.program);
    if (!re_realized.ok()) continue;
    interp.score = TokenF1(re_realized.ValueOrDie(), sentence);
    out.push_back(std::move(interp));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Interpretation& a, const Interpretation& b) {
                     return a.score > b.score;
                   });
  return out;
}

Result<Interpretation> NlInterpreter::Interpret(
    const std::string& sentence, const Table& table, TaskType task,
    const ExecOptions& exec) const {
  std::vector<Interpretation> ranked = RankAll(sentence, table, task, exec);
  if (ranked.empty()) {
    return Status::NotFound("no template binds and executes");
  }
  return ranked.front();
}

}  // namespace uctr::model
