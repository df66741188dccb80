#ifndef UCTR_TESTS_TEST_UTIL_H_
#define UCTR_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "store/codec.h"
#include "table/table.h"

namespace uctr::testing {

/// A small Wikipedia-style relational table used across the test suite.
inline Table MakeNationsTable() {
  const std::string csv =
      "nation,gold,silver,bronze,total\n"
      "united states,10,12,8,30\n"
      "china,8,6,10,24\n"
      "japan,5,9,4,18\n"
      "germany,5,3,6,14\n"
      "france,2,4,7,13\n";
  return Table::FromCsv(csv, "medals").ValueOrDie();
}

/// A TAT-QA-style financial table: first column is the row name.
inline Table MakeFinanceTable() {
  const std::string csv =
      "item,2019,2018\n"
      "revenue,\"$1,200.5\",\"$1,000.0\"\n"
      "cost of sales,800,700\n"
      "gross profit,400.5,300\n"
      "stockholders' equity,\"2,500\",\"2,000\"\n";
  return Table::FromCsv(csv, "financials").ValueOrDie();
}

/// A random relational table for property tests: a text entity column
/// plus `numeric_cols` integer columns, no nulls, distinct entity names.
inline Table RandomTable(Rng* rng, size_t rows = 0, size_t numeric_cols = 0) {
  if (rows == 0) rows = static_cast<size_t>(rng->UniformInt(3, 10));
  if (numeric_cols == 0) {
    numeric_cols = static_cast<size_t>(rng->UniformInt(2, 4));
  }
  std::vector<std::string> header = {"name"};
  for (size_t c = 0; c < numeric_cols; ++c) {
    header.push_back("metric" + std::to_string(c + 1));
  }
  std::vector<std::vector<std::string>> data;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row = {"entity" + std::to_string(r)};
    for (size_t c = 0; c < numeric_cols; ++c) {
      row.push_back(std::to_string(rng->UniformInt(0, 50)));
    }
    data.push_back(std::move(row));
  }
  return Table::FromStrings(header, data, "random").ValueOrDie();
}

/// A checksummed table codec frame whose header claims `rows` rows of zero
/// columns: 45 bytes, hand-built because no table encodes to it. Hostile
/// input for every path that decodes put_table's table_hex.
inline std::string ZeroColumnFrame(uint32_t rows) {
  std::string payload;
  ByteWriter w(&payload);
  w.Str("x");  // table name
  w.U32(1);    // string pool: just the empty string
  w.Str("");
  std::string frame;
  AppendFrameHeader(&frame, store::Codec::kMagic, store::Codec::kVersion,
                    payload);
  ByteWriter counts(&frame);
  counts.U32(0);
  counts.U32(rows);
  return frame + payload;
}

}  // namespace uctr::testing

#endif  // UCTR_TESTS_TEST_UTIL_H_
