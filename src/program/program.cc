#include "program/program.h"

#include "arith/executor.h"
#include "arith/parser.h"
#include "logic/executor.h"
#include "logic/parser.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace uctr {

const char* ProgramTypeToString(ProgramType type) {
  switch (type) {
    case ProgramType::kSql:
      return "sql";
    case ProgramType::kLogicalForm:
      return "logical_form";
    case ProgramType::kArithmetic:
      return "arithmetic";
  }
  return "unknown";
}

Result<ExecResult> Program::Execute(const Table& table) const {
  switch (type) {
    case ProgramType::kSql:
      return sql::ExecuteQuery(text, table);
    case ProgramType::kLogicalForm:
      return logic::ExecuteLogicalForm(text, table);
    case ProgramType::kArithmetic:
      return arith::ExecuteExpression(text, table);
  }
  return Status::Internal("unknown program type");
}

Result<ExecResult> Program::Execute(const Table& table,
                                    const ExecOptions& /*opts*/) const {
  return Execute(table);
}

Status Program::Validate() const {
  switch (type) {
    case ProgramType::kSql:
      return sql::Parse(text).status();
    case ProgramType::kLogicalForm:
      return logic::Parse(text).status();
    case ProgramType::kArithmetic:
      return arith::Parse(text).status();
  }
  return Status::Internal("unknown program type");
}

}  // namespace uctr
