#ifndef UCTR_PROGRAM_PROGRAM_H_
#define UCTR_PROGRAM_PROGRAM_H_

#include <string>

#include "common/result.h"
#include "table/exec_result.h"
#include "table/table.h"

namespace uctr {

namespace ir {
class PlanCache;
}

/// \brief The three program families of the paper (Section II-C).
enum class ProgramType {
  kSql = 0,        ///< SQUALL-style SQL queries (question answering).
  kLogicalForm,    ///< LOGIC2TEXT logical forms (fact verification).
  kArithmetic,     ///< FinQA arithmetic expressions (numerical QA).
};

const char* ProgramTypeToString(ProgramType type);

/// \brief Options for Program::Execute. Programs always run on their
/// family's tree-walk executor; there is nothing to select.
struct ExecOptions {
  /// Ignored. Kept only so the end-to-end benchmark driver
  /// (e2ebench/src/replay.cc), which sets it, still builds; it goes away
  /// together with that use.
  ir::PlanCache* plan_cache = nullptr;
};

/// \brief A concrete executable program: a type tag plus its canonical text.
///
/// The unified Program-Executor (Equation 4) dispatches on the type to the
/// per-family executors in uctr::sql / uctr::logic / uctr::arith.
struct Program {
  ProgramType type = ProgramType::kSql;
  std::string text;

  /// \brief Executes this program on `table`; kEmptyResult and parse /
  /// execution failures surface as error Statuses so the generation
  /// pipeline can discard the sample (Algorithm 1, line 14).
  Result<ExecResult> Execute(const Table& table) const;

  /// \brief Same as Execute(table); `opts` carries nothing that changes
  /// execution.
  Result<ExecResult> Execute(const Table& table, const ExecOptions& opts) const;

  /// \brief Syntax check without execution.
  Status Validate() const;
};

}  // namespace uctr

#endif  // UCTR_PROGRAM_PROGRAM_H_
