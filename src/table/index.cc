#include "table/index.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/hash.h"
#include "common/numeric.h"
#include "common/string_util.h"
#include "obs/metrics.h"
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

const TableIndex::Linking& TableIndex::linking() const {
  std::call_once(linking_once_, [this] { BuildLinking(); });
  return *linking_;
}

uint32_t TableIndex::TokenHash(std::string_view token) {
  uint64_t h = Fnv1a64(token, kFnv1aOffsetBasis);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void TableIndex::BuildLinking() const {
  static obs::Counter* builds =
      obs::DefaultRegistry().counter("table_link_builds_total");
  static obs::Histogram* build_us =
      obs::DefaultRegistry().histogram("table_link_build_us");
  auto start = std::chrono::steady_clock::now();

  auto link = std::make_unique<Linking>();
  // Rows are stored in 32 bits: a table of 2^32 rows would not fit in
  // memory as Values long before.
  const size_t n = table_->num_rows();
  link->postings.resize(num_columns_);
  for (size_t c = 0; c < num_columns_; ++c) {
    std::vector<uint64_t>& postings = link->postings[c];
    for (size_t r = 0; r < n; ++r) {
      const Value& v = table_->cell(r, c);
      if (v.is_null()) continue;
      for (const std::string& t : WordTokens(v.ToDisplayString())) {
        postings.push_back(uint64_t{TokenHash(t)} << 32 | r);
      }
      if (!v.is_number()) continue;
      double x = v.number();
      if (std::isnan(x)) continue;
      if (std::isinf(x)) {
        (x > 0 ? link->has_pos_infinity : link->has_neg_infinity) = true;
      } else {
        link->numbers.push_back(x);
      }
    }
    std::sort(postings.begin(), postings.end());
    postings.erase(std::unique(postings.begin(), postings.end()),
                   postings.end());
    postings.shrink_to_fit();
    for (std::string& t : WordTokens(table_->schema().column(c).name)) {
      link->header_tokens.push_back(std::move(t));
    }
  }
  std::sort(link->numbers.begin(), link->numbers.end());
  link->numbers.erase(std::unique(link->numbers.begin(), link->numbers.end()),
                      link->numbers.end());
  link->numbers.shrink_to_fit();
  std::sort(link->header_tokens.begin(), link->header_tokens.end());
  link->header_tokens.erase(
      std::unique(link->header_tokens.begin(), link->header_tokens.end()),
      link->header_tokens.end());
  linking_ = std::move(link);

  builds->Increment();
  build_us->Observe(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count());
}

std::vector<uint32_t> TableIndex::CandidateRows(
    size_t c, const std::vector<uint32_t>& hashes) const {
  const std::vector<uint64_t>& postings = linking().postings[c];
  std::vector<uint32_t> rows;
  for (uint32_t h : hashes) {
    auto it = std::lower_bound(postings.begin(), postings.end(),
                               uint64_t{h} << 32);
    for (; it != postings.end() && (*it >> 32) == h; ++it) {
      rows.push_back(static_cast<uint32_t>(*it));
    }
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

bool TableIndex::HasToken(const std::string& token) const {
  const Linking& link = linking();
  if (std::binary_search(link.header_tokens.begin(), link.header_tokens.end(),
                         token)) {
    return true;
  }
  const uint64_t h = TokenHash(token);
  for (size_t c = 0; c < num_columns_; ++c) {
    const std::vector<uint64_t>& postings = link.postings[c];
    for (auto it = std::lower_bound(postings.begin(), postings.end(), h << 32);
         it != postings.end() && (*it >> 32) == h; ++it) {
      const Value& v = table_->cell(static_cast<uint32_t>(*it), c);
      for (const std::string& t : WordTokens(v.ToDisplayString())) {
        if (t == token) return true;
      }
    }
  }
  return false;
}

bool TableIndex::HasNearlyEqualNumber(double x) const {
  const Linking& link = linking();
  if (std::isnan(x)) return false;
  // NearlyEqual(finite, ±inf) holds (the difference is inf, and so is the
  // relative tolerance), NearlyEqual(inf, inf) does not (inf - inf is
  // NaN), and NearlyEqual(inf, -inf) does.
  if (std::isinf(x)) {
    return !link.numbers.empty() ||
           (x > 0 ? link.has_neg_infinity : link.has_pos_infinity);
  }
  if (link.has_pos_infinity || link.has_neg_infinity) return true;
  // NearlyEqual(x, y) implies |x - y| <= 1e-6 * max(1, |x|, |y|), and then
  // |y| <= |x| / (1 - 1e-6), so every match lies within `reach` of x; the
  // factor 2 leaves room for rounding. Each number in range is re-checked.
  const double reach = 2e-6 * std::max(1.0, std::abs(x));
  for (auto it = std::lower_bound(link.numbers.begin(), link.numbers.end(),
                                  x - reach);
       it != link.numbers.end() && *it <= x + reach; ++it) {
    if (NearlyEqual(x, *it)) return true;
  }
  return false;
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
