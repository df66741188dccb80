#include "arith/executor.h"

#include <cmath>
#include <set>

#include "arith/parser.h"
#include "common/numeric.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace uctr::arith {

namespace {

Result<double> TryCellLookup(const Table& table, const std::string& column,
                             const std::string& row_name,
                             std::set<size_t>* evidence) {
  UCTR_ASSIGN_OR_RETURN(size_t r, table.RowIndexByName(row_name));
  UCTR_ASSIGN_OR_RETURN(size_t c, table.ColumnIndex(column));
  UCTR_ASSIGN_OR_RETURN(double v, table.cell(r, c).ToNumber());
  evidence->insert(r);
  return v;
}

/// Resolves a `col of row` cell reference to a number. Rows read are added
/// to `*evidence`. NotFound when no split resolves.
Result<double> ResolveCellRef(const Table& table, const std::string& column,
                              const std::string& row, const std::string& text,
                              std::set<size_t>* evidence) {
  // The parser's "col of row" split is a guess: both halves may
  // themselves contain " of " ("cost of sales"). Try the parsed
  // split first, then every other split point of the original text.
  if (auto v = TryCellLookup(table, column, row, evidence); v.ok()) return v;
  std::string lowered = ToLower(text);
  size_t pos = lowered.find(" of ");
  while (pos != std::string::npos) {
    std::string col = Trim(std::string_view(text).substr(0, pos));
    std::string row_name = Trim(std::string_view(text).substr(pos + 4));
    if (auto v = TryCellLookup(table, col, row_name, evidence); v.ok()) {
      return v;
    }
    pos = lowered.find(" of ", pos + 1);
  }
  return Status::NotFound("cannot resolve cell reference '" + text + "'");
}

/// Numeric cells of the row named `name`, or of the column headed `name`.
/// Rows read are added to `*evidence`.
Result<std::vector<double>> ResolveSeries(const Table& table,
                                          const std::string& name,
                                          std::set<size_t>* evidence) {
  std::vector<double> out;
  if (auto r = table.RowIndexByName(name); r.ok()) {
    size_t row = r.ValueOrDie();
    evidence->insert(row);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value& v = table.cell(row, c);
      if (v.is_number()) out.push_back(v.number());
    }
    if (!out.empty()) return out;
  }
  if (auto c = table.ColumnIndex(name); c.ok()) {
    size_t col = c.ValueOrDie();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value& v = table.cell(r, col);
      if (v.is_number()) {
        out.push_back(v.number());
        evidence->insert(r);
      }
    }
    if (!out.empty()) return out;
  }
  return Status::ExecutionError("no numeric series named '" + name + "'");
}

class Evaluator {
 public:
  explicit Evaluator(const Table& table) : table_(table) {}

  Result<Value> Run(const Expression& expr) {
    results_.clear();
    for (const Step& step : expr.steps) {
      UCTR_ASSIGN_OR_RETURN(Value v, EvalStep(step));
      results_.push_back(std::move(v));
    }
    return results_.back();
  }

  const std::set<size_t>& evidence() const { return evidence_; }

 private:
  Result<double> ResolveNumeric(const Operand& op) {
    switch (op.kind) {
      case Operand::Kind::kStepRef:
        if (op.step_ref >= results_.size()) {
          return Status::OutOfRange("forward step reference #" +
                                    std::to_string(op.step_ref));
        }
        return results_[op.step_ref].ToNumber();
      case Operand::Kind::kConst:
        return op.constant;
      case Operand::Kind::kCellRef:
        return ResolveCellRef(table_, op.column, op.row, op.text, &evidence_);
      case Operand::Kind::kText: {
        // Free text might still be a cell value; try a unique table scan.
        Value wanted = Value::FromText(op.text);
        if (wanted.is_number()) return wanted.ToNumber();
        return Status::ExecutionError("cannot resolve operand '" + op.text +
                                      "' to a number");
      }
    }
    return Status::Internal("unreachable");
  }

  Result<Value> EvalStep(const Step& step) {
    if (StartsWith(step.op, "table_")) {
      if (step.args.size() != 1) {
        return Status::InvalidArgument(step.op + " expects 1 argument");
      }
      const Operand& arg = step.args[0];
      std::string name = arg.kind == Operand::Kind::kCellRef
                             ? arg.column + " of " + arg.row
                             : arg.text;
      UCTR_ASSIGN_OR_RETURN(std::vector<double> series,
                            ResolveSeries(table_, name, &evidence_));
      double acc = series[0];
      double sum = 0;
      for (double x : series) sum += x;
      if (step.op == "table_max") {
        for (double x : series) acc = std::max(acc, x);
        return Value::Number(acc);
      }
      if (step.op == "table_min") {
        for (double x : series) acc = std::min(acc, x);
        return Value::Number(acc);
      }
      if (step.op == "table_sum") return Value::Number(sum);
      if (step.op == "table_average") {
        return Value::Number(sum / static_cast<double>(series.size()));
      }
      return Status::InvalidArgument("unknown table op '" + step.op + "'");
    }

    if (step.args.size() != 2) {
      return Status::InvalidArgument(step.op + " expects 2 arguments");
    }
    UCTR_ASSIGN_OR_RETURN(double a, ResolveNumeric(step.args[0]));
    UCTR_ASSIGN_OR_RETURN(double b, ResolveNumeric(step.args[1]));
    if (step.op == "add") return Value::Number(a + b);
    if (step.op == "subtract") return Value::Number(a - b);
    if (step.op == "multiply") return Value::Number(a * b);
    if (step.op == "divide") {
      if (b == 0) return Status::ExecutionError("division by zero");
      return Value::Number(a / b);
    }
    if (step.op == "greater") return Value::Bool(a > b);
    if (step.op == "exp") {
      double v = std::pow(a, b);
      if (!std::isfinite(v)) {
        return Status::ExecutionError("exp overflow");
      }
      return Value::Number(v);
    }
    return Status::InvalidArgument("unknown operation '" + step.op + "'");
  }

  const Table& table_;
  std::vector<Value> results_;
  std::set<size_t> evidence_;
};

}  // namespace

Result<ExecResult> Execute(const Expression& expr, const Table& table) {
  static obs::Counter* exec_total =
      obs::DefaultRegistry().counter("arith_exec_total");
  static obs::Counter* steps_total =
      obs::DefaultRegistry().counter("arith_steps_total");
  exec_total->Increment();
  steps_total->Increment(expr.steps.size());
  Evaluator eval(table);
  UCTR_ASSIGN_OR_RETURN(Value answer, eval.Run(expr));
  ExecResult result;
  result.values.push_back(std::move(answer));
  result.evidence_rows.assign(eval.evidence().begin(), eval.evidence().end());
  return result;
}

Result<ExecResult> ExecuteExpression(std::string_view text,
                                     const Table& table) {
  UCTR_ASSIGN_OR_RETURN(Expression expr, Parse(text));
  return Execute(expr, table);
}

}  // namespace uctr::arith
