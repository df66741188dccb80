#include "sql/executor.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_set>

#include "common/numeric.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "table/index.h"

namespace uctr::sql {

namespace {

/// `cell op literal`; a null cell never matches (SQL three-valued logic
/// collapsed to false).
bool EvalCondition(CmpOp op, const Value& literal, const Value& cell) {
  if (cell.is_null()) return false;
  switch (op) {
    case CmpOp::kEq:
      return cell.Equals(literal);
    case CmpOp::kNe:
      return !cell.Equals(literal);
    case CmpOp::kLt:
      return cell.Compare(literal) < 0;
    case CmpOp::kGt:
      return cell.Compare(literal) > 0;
    case CmpOp::kLe:
      return cell.Compare(literal) <= 0;
    case CmpOp::kGe:
      return cell.Compare(literal) >= 0;
  }
  return false;
}

/// EvalCondition over cached column data; cell nullness handled here, the
/// rest mirrors Value::Equals/Compare exactly (see TableIndex contract).
bool EvalConditionIndexed(const TableIndex::Column& col, size_t r, CmpOp op,
                          const TableIndex::LiteralKey& lit) {
  if (col.is_null[r]) return false;
  switch (op) {
    case CmpOp::kEq:
      return TableIndex::CellEquals(col, r, lit);
    case CmpOp::kNe:
      return !TableIndex::CellEquals(col, r, lit);
    case CmpOp::kLt:
      return TableIndex::CellCompare(col, r, lit) < 0;
    case CmpOp::kGt:
      return TableIndex::CellCompare(col, r, lit) > 0;
    case CmpOp::kLe:
      return TableIndex::CellCompare(col, r, lit) <= 0;
    case CmpOp::kGe:
      return TableIndex::CellCompare(col, r, lit) >= 0;
  }
  return false;
}

/// One WHERE conjunct through the index: narrows `*rows` (ascending, as
/// produced by iota + prior narrowing) to the matching subset. Equality
/// against a non-null non-numeric literal intersects with the hash index
/// posting list (no per-row work, nothing added to rows_scanned) — and
/// when `*rows` covers the whole table it is necessarily the identity
/// permutation, so the posting list is taken outright in O(matches);
/// every other shape tests rows one by one.
void FilterOneIndexed(const TableIndex::Column& col, CmpOp op,
                      const TableIndex::LiteralKey& lit,
                      std::vector<size_t>* rows, size_t* rows_scanned) {
  std::vector<size_t> kept;
  if (op == CmpOp::kEq && !lit.null && !lit.numeric) {
    auto hit = col.by_text.find(lit.norm);
    if (hit != col.by_text.end()) {
      if (rows->size() == col.is_null.size()) {
        kept = hit->second;
      } else {
        std::set_intersection(rows->begin(), rows->end(),
                              hit->second.begin(), hit->second.end(),
                              std::back_inserter(kept));
      }
    }
  } else {
    kept.reserve(rows->size());
    *rows_scanned += rows->size();
    for (size_t r : *rows) {
      if (EvalConditionIndexed(col, r, op, lit)) kept.push_back(r);
    }
  }
  *rows = std::move(kept);
}

/// Aggregate over `rows` of column `col` (ignored when `star`).
Result<Value> EvalAggregate(AggFunc agg, bool star, bool distinct, size_t col,
                            const Table& table,
                            const std::vector<size_t>& rows) {
  if (agg == AggFunc::kCount) {
    if (star) return Value::Number(static_cast<double>(rows.size()));
    if (distinct) {
      std::unordered_set<std::string> seen;
      for (size_t r : rows) {
        const Value& v = table.cell(r, col);
        if (!v.is_null()) seen.insert(v.ToDisplayString());
      }
      return Value::Number(static_cast<double>(seen.size()));
    }
    size_t count = 0;
    for (size_t r : rows) {
      if (!table.cell(r, col).is_null()) ++count;
    }
    return Value::Number(static_cast<double>(count));
  }

  double sum = 0;
  size_t n = 0;
  bool first = true;
  Value best;
  for (size_t r : rows) {
    const Value& v = table.cell(r, col);
    if (v.is_null()) continue;
    if (agg == AggFunc::kSum || agg == AggFunc::kAvg) {
      UCTR_ASSIGN_OR_RETURN(double x, v.ToNumber());
      sum += x;
      ++n;
    } else {  // MIN / MAX
      if (first) {
        best = v;
        first = false;
      } else if (agg == AggFunc::kMin ? v.Compare(best) < 0
                                      : v.Compare(best) > 0) {
        best = v;
      }
    }
  }
  switch (agg) {
    case AggFunc::kSum:
      if (n == 0) return Status::EmptyResult("SUM over no rows");
      return Value::Number(sum);
    case AggFunc::kAvg:
      if (n == 0) return Status::EmptyResult("AVG over no rows");
      return Value::Number(sum / static_cast<double>(n));
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (first) return Status::EmptyResult("MIN/MAX over no rows");
      return best;
    default:
      return Status::Internal("unexpected aggregate");
  }
}

/// EvalAggregate over the numeric column cache (SUM/AVG read pre-parsed
/// doubles, MIN/MAX compare cached keys, COUNT DISTINCT hashes cached
/// display strings without materializing copies).
Result<Value> EvalAggregateIndexed(AggFunc agg, bool star, bool distinct,
                                   size_t col_idx, const Table& table,
                                   const TableIndex& index,
                                   const std::vector<size_t>& rows) {
  if (agg == AggFunc::kCount) {
    if (star) return Value::Number(static_cast<double>(rows.size()));
    const TableIndex::Column& col = index.column(col_idx);
    if (distinct) {
      std::unordered_set<std::string_view> seen;
      for (size_t r : rows) {
        if (!col.is_null[r]) seen.insert(col.display[r]);
      }
      return Value::Number(static_cast<double>(seen.size()));
    }
    size_t count = 0;
    for (size_t r : rows) {
      if (!col.is_null[r]) ++count;
    }
    return Value::Number(static_cast<double>(count));
  }

  const TableIndex::Column& col = index.column(col_idx);
  if (agg == AggFunc::kSum || agg == AggFunc::kAvg) {
    double sum = 0;
    size_t n = 0;
    for (size_t r : rows) {
      if (col.is_null[r]) continue;
      if (col.numeric[r]) {
        sum += col.number[r];
      } else {
        // Non-numeric cell: surface the exact scan-path TypeError.
        UCTR_ASSIGN_OR_RETURN(double x, table.cell(r, col_idx).ToNumber());
        sum += x;
      }
      ++n;
    }
    if (n == 0) {
      return Status::EmptyResult(agg == AggFunc::kSum ? "SUM over no rows"
                                                      : "AVG over no rows");
    }
    return Value::Number(agg == AggFunc::kSum ? sum
                                              : sum / static_cast<double>(n));
  }

  // MIN / MAX: linear pass with cached comparison keys; ties keep the
  // earliest row, exactly like the scan.
  bool first = true;
  size_t best_row = 0;
  for (size_t r : rows) {
    if (col.is_null[r]) continue;
    if (first) {
      best_row = r;
      first = false;
    } else if (agg == AggFunc::kMin
                   ? TableIndex::CompareRows(col, r, best_row) < 0
                   : TableIndex::CompareRows(col, r, best_row) > 0) {
      best_row = r;
    }
  }
  if (first) return Status::EmptyResult("MIN/MAX over no rows");
  return table.cell(best_row, col_idx);
}

/// Executor instruments, resolved once (thread-safe function-local
/// statics) so the per-query cost is relaxed atomic adds. Row work is
/// accumulated locally per query and added in one shot.
struct SqlInstruments {
  obs::Counter* exec_indexed;
  obs::Counter* exec_scan;
  obs::Counter* rows_scanned;
  static const SqlInstruments& Get() {
    static const SqlInstruments inst = [] {
      obs::MetricsRegistry& r = obs::DefaultRegistry();
      return SqlInstruments{r.counter("sql_exec_total{path=\"indexed\"}"),
                            r.counter("sql_exec_total{path=\"scan\"}"),
                            r.counter("sql_rows_scanned_total")};
    }();
    return inst;
  }
};

/// WHERE evaluation through the index. Conditions are applied in order to
/// a shrinking row set; an exhausted set stops early, matching the scan
/// path (which never resolves a condition's column once no row reaches
/// it). Equality against a non-numeric literal uses the hash index.
Result<std::vector<size_t>> FilterIndexed(const std::vector<Condition>& where,
                                          const Table& table,
                                          const TableIndex& index,
                                          size_t* rows_scanned) {
  std::vector<size_t> rows(table.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  for (const Condition& cond : where) {
    if (rows.empty()) break;
    UCTR_ASSIGN_OR_RETURN(size_t c, table.ColumnIndex(cond.column));
    const TableIndex::Column& col = index.column(c);
    TableIndex::LiteralKey lit(cond.literal);
    FilterOneIndexed(col, cond.op, lit, &rows, rows_scanned);
  }
  return rows;
}

/// Resolves a SelectItem's column (when needed) then aggregates.
Result<Value> EvalAggregateItem(const SelectItem& item, const Table& table,
                                const TableIndex* index,
                                const std::vector<size_t>& rows) {
  size_t c = 0;
  if (!item.star) {
    UCTR_ASSIGN_OR_RETURN(c, table.ColumnIndex(item.column));
  }
  if (index != nullptr) {
    return EvalAggregateIndexed(item.agg, item.star, item.distinct, c, table,
                                *index, rows);
  }
  return EvalAggregate(item.agg, item.star, item.distinct, c, table, rows);
}

}  // namespace

Result<ExecResult> Execute(const SelectStatement& stmt, const Table& table,
                           const ExecOptions& opts) {
  const TableIndex* index = opts.use_index ? &table.index() : nullptr;
  const SqlInstruments& inst = SqlInstruments::Get();
  (index ? inst.exec_indexed : inst.exec_scan)->Increment();
  size_t rows_scanned = 0;

  // 1. Filter.
  std::vector<size_t> rows;
  if (index) {
    UCTR_ASSIGN_OR_RETURN(
        rows, FilterIndexed(stmt.where, table, *index, &rows_scanned));
  } else {
    rows_scanned = table.num_rows();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      bool keep = true;
      for (const Condition& cond : stmt.where) {
        UCTR_ASSIGN_OR_RETURN(size_t c, table.ColumnIndex(cond.column));
        if (!EvalCondition(cond.op, cond.literal, table.cell(r, c))) {
          keep = false;
          break;
        }
      }
      if (keep) rows.push_back(r);
    }
  }
  inst.rows_scanned->Increment(rows_scanned);

  // 2. Order.
  if (stmt.order_by) {
    UCTR_ASSIGN_OR_RETURN(size_t c, table.ColumnIndex(stmt.order_by->column));
    bool desc = stmt.order_by->descending;
    if (index) {
      const TableIndex::Column& col = index->column(c);
      std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
        int cmp = TableIndex::CompareRows(col, a, b);
        return desc ? cmp > 0 : cmp < 0;
      });
    } else {
      std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
        int cmp = table.cell(a, c).Compare(table.cell(b, c));
        return desc ? cmp > 0 : cmp < 0;
      });
    }
  }

  // 3. Limit.
  if (stmt.limit && *stmt.limit >= 0 &&
      rows.size() > static_cast<size_t>(*stmt.limit)) {
    rows.resize(static_cast<size_t>(*stmt.limit));
  }

  // 4. Project.
  bool any_aggregate = false;
  for (const SelectItem& item : stmt.items) {
    if (item.agg != AggFunc::kNone) any_aggregate = true;
  }

  ExecResult result;
  result.evidence_rows = rows;
  if (any_aggregate) {
    for (const SelectItem& item : stmt.items) {
      if (item.agg == AggFunc::kNone) {
        return Status::InvalidArgument(
            "mixing aggregates and plain columns is not supported");
      }
      Result<Value> v = EvalAggregateItem(item, table, index, rows);
      UCTR_RETURN_NOT_OK(v.status());
      result.values.push_back(std::move(v).ValueOrDie());
    }
    // COUNT over an empty filter is a legitimate 0 answer, but evidence-free
    // results are useless for training samples; keep them (the generator
    // applies its own EmptyResult policy on values, not rows).
    return result;
  }

  for (size_t r : rows) {
    for (const SelectItem& item : stmt.items) {
      UCTR_ASSIGN_OR_RETURN(size_t c, table.ColumnIndex(item.column));
      const Value& lhs = table.cell(r, c);
      if (item.arith == ArithOp::kNone) {
        if (!lhs.is_null()) result.values.push_back(lhs);
        continue;
      }
      UCTR_ASSIGN_OR_RETURN(size_t c2, table.ColumnIndex(item.rhs_column));
      const Value& rhs = table.cell(r, c2);
      UCTR_ASSIGN_OR_RETURN(double a, lhs.ToNumber());
      UCTR_ASSIGN_OR_RETURN(double b, rhs.ToNumber());
      result.values.push_back(
          Value::Number(item.arith == ArithOp::kAdd ? a + b : a - b));
    }
  }
  if (result.values.empty()) {
    return Status::EmptyResult("query matched no rows");
  }
  return result;
}

Result<ExecResult> ExecuteQuery(std::string_view query, const Table& table,
                                const ExecOptions& opts) {
  UCTR_ASSIGN_OR_RETURN(SelectStatement stmt, Parse(query));
  return Execute(stmt, table, opts);
}

}  // namespace uctr::sql
