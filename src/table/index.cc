#include "table/index.h"

#include <algorithm>

#include "common/numeric.h"
#include "common/string_util.h"
#include "table/table.h"

namespace uctr {

TableIndex::LiteralKey::LiteralKey(const Value& v) {
  null = v.is_null();
  if (null) return;
  if (auto num = v.ToNumber(); num.ok()) {
    numeric = true;
    number = num.ValueOrDie();
  }
  norm = ToLower(Trim(v.ToDisplayString()));
}

TableIndex::TableIndex(const Table* table)
    : table_(table),
      num_columns_(table->num_columns()),
      once_(std::make_unique<std::once_flag[]>(table->num_columns())),
      columns_(table->num_columns()) {}

const TableIndex::Column& TableIndex::column(size_t c) const {
  std::call_once(once_[c], [this, c] { BuildColumn(c); });
  return *columns_[c];
}

void TableIndex::Warm() const {
  for (size_t c = 0; c < num_columns_; ++c) column(c);
}

void TableIndex::BuildColumn(size_t c) const {
  auto col = std::make_unique<Column>();
  const size_t n = table_->num_rows();
  col->is_null.resize(n);
  col->numeric.resize(n);
  col->number.resize(n, 0.0);
  col->display.resize(n);
  col->norm.resize(n);
  for (size_t r = 0; r < n; ++r) {
    const Value& v = table_->cell(r, c);
    col->is_null[r] = v.is_null() ? 1 : 0;
    if (v.is_null()) continue;
    ++col->non_null_count;
    if (auto num = v.ToNumber(); num.ok()) {
      col->numeric[r] = 1;
      col->number[r] = num.ValueOrDie();
    }
    col->display[r] = v.ToDisplayString();
    col->norm[r] = ToLower(Trim(col->display[r]));
    if (!col->numeric[r]) col->by_text[col->norm[r]].push_back(r);
  }
  col->sorted.resize(n);
  for (size_t r = 0; r < n; ++r) col->sorted[r] = r;
  const Column& built = *col;
  std::stable_sort(col->sorted.begin(), col->sorted.end(),
                   [&built](size_t a, size_t b) {
                     return CompareRows(built, a, b) < 0;
                   });
  columns_[c] = std::move(col);
}

bool TableIndex::CellEquals(const Column& col, size_t r,
                            const LiteralKey& lit) {
  if (lit.null) return false;  // caller guarantees the cell is non-null
  if (col.numeric[r] && lit.numeric) {
    return NearlyEqual(col.number[r], lit.number);
  }
  if (col.numeric[r] != lit.numeric) return false;
  return col.norm[r] == lit.norm;
}

int TableIndex::CellCompare(const Column& col, size_t r,
                            const LiteralKey& lit) {
  if (lit.null) return 1;  // non-null cell > null literal
  if (col.numeric[r] && lit.numeric) {
    if (NearlyEqual(col.number[r], lit.number)) return 0;
    return col.number[r] < lit.number ? -1 : 1;
  }
  int cmp = col.norm[r].compare(lit.norm);
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

int TableIndex::CompareRows(const Column& col, size_t a, size_t b) {
  const bool na = col.is_null[a], nb = col.is_null[b];
  if (na && nb) return 0;
  if (na) return -1;
  if (nb) return 1;
  if (col.numeric[a] && col.numeric[b]) {
    if (NearlyEqual(col.number[a], col.number[b])) return 0;
    return col.number[a] < col.number[b] ? -1 : 1;
  }
  int cmp = col.norm[a].compare(col.norm[b]);
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

}  // namespace uctr
