#ifndef UCTR_TABLE_INDEX_H_
#define UCTR_TABLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "table/value.h"

namespace uctr {

class Table;

/// \brief Per-column accelerators for the executor hot path, built lazily
/// and cached on the owning Table (see Table::index()).
///
/// Every program execution used to re-parse the same cell strings through
/// Value::ToNumber()/ToDisplayString() on every predicate, aggregate, and
/// sampler probe. TableIndex amortizes that work per table: each column
/// cache is built once (one pass over the column) and then shared by all
/// subsequent executions, TAPEX-style.
///
/// Contract with the scan path: every helper here mirrors the exact
/// semantics of Value::ToNumber / ToDisplayString / Equals / Compare, so
/// indexed execution is bit-identical to the reference row scan (same
/// values, same tie-breaking row order, same EmptyResult/error behavior).
/// tests/index_test.cc enforces this differentially.
///
/// The linking lookups (linking()) follow the same pattern: built once per
/// table under their own std::call_once on the first request that links a
/// sentence to the table, then probed read-only.
///
/// Thread safety: column caches are built under std::call_once, so any
/// number of threads may share one TableIndex through a const Table —
/// this is what lets serve:: build the index once at table load and share
/// it read-only across Scheduler workers. The table itself must not be
/// mutated while readers are active (the same rule that already governs
/// Table::rows_); any mutation through the Table API invalidates the
/// whole index.
class TableIndex {
 public:
  /// \brief One column's caches, all aligned with table row order.
  /// Self-contained (owns copies), so the cache stays valid across Table
  /// moves and never dangles into row storage.
  struct Column {
    std::vector<uint8_t> is_null;   ///< cell.is_null()
    std::vector<uint8_t> numeric;   ///< cell.ToNumber().ok()
    std::vector<double> number;     ///< parsed value when numeric
    std::vector<std::string> display;  ///< cell.ToDisplayString()
    std::vector<std::string> norm;     ///< ToLower(Trim(display))
    /// Hash index for equality predicates: norm -> ascending row indices.
    /// Only rows where the cell is non-null and non-numeric appear (numeric
    /// cells compare through NearlyEqual, which a hash key cannot express).
    std::unordered_map<std::string, std::vector<size_t>> by_text;
    /// All rows stable-sorted by Value::Compare (nulls first, ties in row
    /// order) — the order ORDER BY ASC / argmin produce over a full view.
    std::vector<size_t> sorted;
    size_t non_null_count = 0;
  };

  /// \brief Pre-analysis of a predicate literal, hoisted out of row loops.
  struct LiteralKey {
    bool null = true;
    bool numeric = false;
    double number = 0.0;
    std::string norm;  ///< ToLower(Trim(literal.ToDisplayString()))

    explicit LiteralKey(const Value& v);
  };

  /// \brief Table-wide lookups for linking a sentence to the table
  /// (NlInterpreter slot binding, FeatureExtractor alignment). Flat sorted
  /// arrays, not node-based maps, so that a store holding thousands of
  /// linked tables stays small (DESIGN.md, "Table index lifecycle").
  struct Linking {
    /// Per column: `(TokenHash(token) << 32) | row` for every distinct
    /// WordTokens token of every non-null cell's ToDisplayString(),
    /// sorted, so one hash's rows are a contiguous ascending run.
    std::vector<std::vector<uint64_t>> postings;
    /// Finite values of the cells where Value::is_number(), sorted and
    /// deduplicated. NaN cells are left out (NearlyEqual never holds for
    /// them); ±infinity cells only set the two flags below.
    std::vector<double> numbers;
    bool has_pos_infinity = false;
    bool has_neg_infinity = false;
    /// WordTokens of every column name, sorted and deduplicated.
    std::vector<std::string> header_tokens;
  };

  explicit TableIndex(const Table* table);

  /// \brief The cache for column `c`, building it on first use.
  /// Thread-safe; `c` must be a valid column index.
  const Column& column(size_t c) const;

  /// \brief The linking lookups, building them on first use. Thread-safe.
  /// Warm() does not build them: they cost a pass of tokenization that
  /// only tables which are actually linked against should pay.
  const Linking& linking() const;

  /// \brief The 32-bit hash of a token in Linking::postings.
  static uint32_t TokenHash(std::string_view token);

  /// \brief Rows of column `c` holding a token whose TokenHash is in
  /// `hashes`, ascending and each once. A superset of the rows holding one
  /// of the hashed tokens: a hash collision adds a row, so callers judge
  /// each row by its text.
  std::vector<uint32_t> CandidateRows(
      size_t c, const std::vector<uint32_t>& hashes) const;

  /// \brief True iff `token` is a WordTokens token of some non-null cell's
  /// display string or of some column name. Exact: postings hits are
  /// re-checked against the cell's text.
  bool HasToken(const std::string& token) const;

  /// \brief True iff NearlyEqual(x, n) holds for the number n of some cell
  /// with Value::is_number(). Exact for every x, non-finite ones included.
  bool HasNearlyEqualNumber(double x) const;

  /// \brief Eagerly builds every column cache (serve:: calls this once at
  /// table load so workers never pay the build inside a request).
  void Warm() const;

  size_t num_columns() const { return num_columns_; }

  // --- comparison helpers mirroring Value semantics over cached data ---

  /// \brief Value::Equals(cell(r), literal) for a non-null cell.
  static bool CellEquals(const Column& col, size_t r, const LiteralKey& lit);

  /// \brief Value::Compare(cell(r), literal) for a non-null cell.
  static int CellCompare(const Column& col, size_t r, const LiteralKey& lit);

  /// \brief Value::Compare(cell(a), cell(b)) within one column.
  static int CompareRows(const Column& col, size_t a, size_t b);

 private:
  friend class Table;
  /// Re-points the index at a moved-to Table (caches are self-contained;
  /// only lazy builds of untouched columns read through the pointer).
  void RebindTable(const Table* table) { table_ = table; }

  void BuildColumn(size_t c) const;
  void BuildLinking() const;

  const Table* table_;
  size_t num_columns_;
  std::unique_ptr<std::once_flag[]> once_;
  mutable std::vector<std::unique_ptr<Column>> columns_;
  mutable std::once_flag linking_once_;
  mutable std::unique_ptr<Linking> linking_;
};

}  // namespace uctr

#endif  // UCTR_TABLE_INDEX_H_
