#ifndef UCTR_MODEL_INTERPRETER_H_
#define UCTR_MODEL_INTERPRETER_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "gen/sample.h"
#include "nlgen/nl_generator.h"
#include "program/library.h"
#include "table/table.h"

namespace uctr::model {

/// \brief One candidate reading of a sentence as an executable program.
struct Interpretation {
  Program program;
  ExecResult result;
  std::map<std::string, std::string> bindings;
  size_t template_index = 0;  ///< into the interpreter's template list
  double score = 0.0;         ///< token-F1 of re-realization vs. input
};

/// \brief Inverse of the NL-Generator: maps a question/claim back to the
/// most plausible program over a table, by slot-binding every known
/// template against the sentence, executing the candidates, and scoring
/// each by re-realizing it canonically and measuring token overlap with
/// the input sentence.
///
/// This is the "reasoning" half of the model substrate: the trainable
/// models (VerifierModel / QaModel) learn how much to trust which
/// interpretations, mirroring program-enhanced verification models and
/// semantic-parsing QA models in the paper's related work.
class NlInterpreter {
 public:
  explicit NlInterpreter(std::vector<ProgramTemplate> templates);

  const std::vector<ProgramTemplate>& templates() const { return templates_; }

  /// \brief All executable interpretations, best first. `task` selects
  /// claim-style binding (with a derived compared-to value) or
  /// question-style binding. `exec` is forwarded to every candidate
  /// program's Execute.
  std::vector<Interpretation> RankAll(
      const std::string& sentence, const Table& table, TaskType task,
      const ExecOptions& exec = ExecOptions()) const;

  /// \brief Best interpretation, or NotFound when nothing binds+executes.
  Result<Interpretation> Interpret(
      const std::string& sentence, const Table& table, TaskType task,
      const ExecOptions& exec = ExecOptions()) const;

  /// \brief Extracts the claimed value from a claim sentence (the phrase
  /// after the final copula, e.g. "... is 8." -> "8"). Empty if absent.
  static std::string ClaimedValue(const std::string& sentence);

  /// \brief Binds one template's slots against (sentence, table): the
  /// bindings RankAll fills the template with, or an error when a slot
  /// cannot be filled.
  ///
  /// Value and row slots take the cell that covers the largest share of
  /// its tokens in the sentence (at least half), the first such row on a
  /// tie, each cell value at most once per column. Only rows that share a
  /// token with the sentence are scored, found through the table's linking
  /// postings (TableIndex::CandidateRows); every other row covers nothing
  /// and could never win, so the result is that of a scan of every row.
  static Result<std::map<std::string, std::string>> BindTemplate(
      const ProgramTemplate& tmpl, const std::string& sentence,
      const Table& table, TaskType task);

 private:
  struct SentenceLinks;

  static Result<std::map<std::string, std::string>> Bind(
      const ProgramTemplate& tmpl, SentenceLinks* links, TaskType task);

  std::vector<ProgramTemplate> templates_;
  nlgen::NlGenerator canonical_generator_;
};

}  // namespace uctr::model

#endif  // UCTR_MODEL_INTERPRETER_H_
