#include "store/codec.h"

#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"

namespace uctr::store {

namespace {

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("table codec: " + what);
}

Status Truncated() { return Corrupt("truncated payload"); }

/// Physical encoding of one column, stored as one byte after its schema
/// type. Encode picks the narrowest one that represents every cell.
enum class ColumnEncoding : uint8_t {
  kInt64 = 0,   ///< every non-null cell is a number with an integral value
  kDouble = 1,  ///< every non-null cell is a number
  kString = 2,  ///< every non-null cell is a string (or no cell is non-null)
  kBool = 3,    ///< every non-null cell is a bool (bit-packed)
  kMixed = 4,   ///< heterogeneous column: per-cell type tags
};

/// int64 can hold any integral double in [-2^63, 2^63): both bounds are
/// exactly representable, the upper one exclusively (casting 2^63 is UB).
constexpr double kInt64Lo = -9223372036854775808.0;  // -2^63
constexpr double kInt64Hi = 9223372036854775808.0;   // 2^63

bool FitsInt64(double v) {
  return std::nearbyint(v) == v && v >= kInt64Lo && v < kInt64Hi;
}

void SetBit(std::vector<uint8_t>* bits, size_t i) {
  (*bits)[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
}

bool GetBit(std::string_view bits, size_t i) {
  return (static_cast<uint8_t>(bits[i / 8]) >> (i % 8)) & 1;
}

/// The string pool being built by Encode: ids in first-seen order over
/// views into the table being encoded.
class Interner {
 public:
  Interner() { Id(""); }

  uint32_t Id(std::string_view text) {
    auto [it, inserted] =
        ids_.try_emplace(text, static_cast<uint32_t>(strings_.size()));
    if (inserted) strings_.push_back(text);
    return it->second;
  }

  const std::vector<std::string_view>& strings() const { return strings_; }

 private:
  std::vector<std::string_view> strings_;
  std::unordered_map<std::string_view, uint32_t> ids_;
};

/// The per-column type decision: what value types the column holds,
/// whether every number is integral, and whether any number kept a
/// surface text ("$1,234.5").
ColumnEncoding PickEncoding(const Table& table, size_t c, bool* number_text) {
  size_t strings = 0, numbers = 0, bools = 0, non_null = 0;
  bool all_int = true;
  *number_text = false;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.cell(r, c);
    if (v.is_null()) continue;
    ++non_null;
    if (v.is_string()) {
      ++strings;
    } else if (v.is_number()) {
      ++numbers;
      if (!FitsInt64(v.number())) all_int = false;
      if (!v.text().empty()) *number_text = true;
    } else {
      ++bools;
    }
  }
  if (non_null == numbers && numbers > 0) {
    return all_int ? ColumnEncoding::kInt64 : ColumnEncoding::kDouble;
  }
  if (non_null == bools && bools > 0) return ColumnEncoding::kBool;
  if (non_null == strings) return ColumnEncoding::kString;
  return ColumnEncoding::kMixed;
}

/// Writes column `c`: name, schema type, encoding, null bitmap, then the
/// encoding's arrays. Slots under a set null bit are zero.
void EncodeColumn(const Table& table, size_t c, Interner* pool,
                  ByteWriter* w) {
  const size_t rows = table.num_rows();
  bool number_text = false;
  const ColumnEncoding encoding = PickEncoding(table, c, &number_text);
  const ColumnSpec& spec = table.schema().column(c);
  w->Str(spec.name);
  w->U8(static_cast<uint8_t>(spec.type));
  w->U8(static_cast<uint8_t>(encoding));

  std::vector<uint8_t> nulls((rows + 7) / 8, 0);
  for (size_t r = 0; r < rows; ++r) {
    if (table.cell(r, c).is_null()) SetBit(&nulls, r);
  }
  w->Bytes(nulls.data(), nulls.size());

  // Null, bool and text-less number cells have empty text, so they get
  // id 0 without touching the pool.
  auto text_ids = [&] {
    for (size_t r = 0; r < rows; ++r) {
      const std::string& text = table.cell(r, c).text();
      w->U32(text.empty() ? 0 : pool->Id(text));
    }
  };
  switch (encoding) {
    case ColumnEncoding::kInt64:
      w->U8(number_text ? 1 : 0);
      for (size_t r = 0; r < rows; ++r) {
        const Value& v = table.cell(r, c);
        w->I64(v.is_null() ? 0 : static_cast<int64_t>(v.number()));
      }
      if (number_text) text_ids();
      break;
    case ColumnEncoding::kDouble:
      w->U8(number_text ? 1 : 0);
      for (size_t r = 0; r < rows; ++r) {
        const Value& v = table.cell(r, c);
        w->F64(v.is_null() ? 0.0 : v.number());
      }
      if (number_text) text_ids();
      break;
    case ColumnEncoding::kString:
      text_ids();
      break;
    case ColumnEncoding::kBool: {
      std::vector<uint8_t> bits(nulls.size(), 0);
      for (size_t r = 0; r < rows; ++r) {
        const Value& v = table.cell(r, c);
        if (!v.is_null() && v.boolean()) SetBit(&bits, r);
      }
      w->Bytes(bits.data(), bits.size());
      break;
    }
    case ColumnEncoding::kMixed:
      for (size_t r = 0; r < rows; ++r) {
        w->U8(static_cast<uint8_t>(table.cell(r, c).type()));
      }
      for (size_t r = 0; r < rows; ++r) {
        const Value& v = table.cell(r, c);
        w->F64(v.is_number() || v.is_bool() ? v.number() : 0.0);
      }
      text_ids();
      break;
  }
}

}  // namespace

std::string Codec::Encode(const Table& table) {
  // Columns are written first because they fill the pool, which the
  // payload stores ahead of them.
  Interner pool;
  std::string columns;
  ByteWriter cw(&columns);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EncodeColumn(table, c, &pool, &cw);
  }

  std::string payload;
  ByteWriter w(&payload);
  w.Str(table.name());
  w.U32(static_cast<uint32_t>(pool.strings().size()));
  for (std::string_view s : pool.strings()) w.Str(s);
  payload += columns;

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  AppendFrameHeader(&out, kMagic, kVersion, payload);
  ByteWriter h(&out);
  h.U32(static_cast<uint32_t>(table.num_columns()));
  h.U32(static_cast<uint32_t>(table.num_rows()));
  out += payload;
  return out;
}

Result<Table> Codec::Decode(std::string_view bytes) {
  const Frame frame = ReadFrame(bytes, kMagic, kVersion, kHeaderBytes);
  switch (frame.error) {
    case FrameError::kShort:
      return Corrupt("short header (" + std::to_string(bytes.size()) +
                     " bytes)");
    case FrameError::kMagic:
      return Corrupt("bad magic");
    case FrameError::kVersion:
      return Corrupt("version skew: payload is v" +
                     std::to_string(frame.version) + ", this build reads v" +
                     std::to_string(kVersion));
    default:
      break;
  }
  if (frame.payload_size != bytes.size() - kHeaderBytes) {
    return Corrupt("payload size mismatch: header says " +
                   std::to_string(frame.payload_size) + ", have " +
                   std::to_string(bytes.size() - kHeaderBytes));
  }
  if (frame.error == FrameError::kChecksum) {
    return Corrupt("checksum mismatch");
  }
  // ReadFrame proved the header holds both counts.
  uint32_t num_columns = 0, num_rows = 0;
  ByteReader counts(bytes.substr(kFrameHeaderBytes));
  counts.U32(&num_columns);
  counts.U32(&num_rows);
  // Rows of zero cells take no payload bytes, so nothing else would bound
  // them; no encoded table has them.
  if (num_columns == 0 && num_rows != 0) {
    return Corrupt(std::to_string(num_rows) + " rows without columns");
  }

  const size_t rows = num_rows;
  const size_t bitmap_bytes = (rows + 7) / 8;

  ByteReader r(frame.payload);
  std::string name;
  if (!r.Str(&name)) return Truncated();
  uint32_t pool_count = 0;
  if (!r.U32(&pool_count)) return Truncated();
  if (pool_count == 0) return Corrupt("empty string pool");
  // Each pool entry costs at least its 4-byte length prefix, so this
  // bounds the vector reserve by actual input size.
  if (static_cast<uint64_t>(pool_count) * 4 > r.remaining()) {
    return Corrupt("string pool count exceeds payload");
  }
  std::vector<std::string> pool;
  pool.reserve(pool_count);
  for (uint32_t i = 0; i < pool_count; ++i) {
    std::string s;
    if (!r.Str(&s)) return Truncated();
    pool.push_back(std::move(s));
  }
  if (!pool[0].empty()) return Corrupt("pool id 0 is not empty string");

  // Every column costs at least a name length prefix, two type bytes, the
  // null bitmap and a bool bitmap (the narrowest encoding). Checking that
  // before sizing the cell grid bounds rows x columns by the input size.
  if (static_cast<uint64_t>(num_columns) * (6 + 2 * bitmap_bytes) >
      r.remaining()) {
    return Truncated();
  }
  std::vector<ColumnSpec> specs;
  specs.reserve(num_columns);
  std::vector<Table::Row> cells(rows, Table::Row(num_columns));

  std::vector<double> numbers;     // kInt64, kDouble, kMixed
  std::vector<uint32_t> text_ids;  // empty when the column stores no text
  for (uint32_t c = 0; c < num_columns; ++c) {
    ColumnSpec spec;
    uint8_t schema_type = 0, encoding_byte = 0;
    if (!r.Str(&spec.name) || !r.U8(&schema_type) || !r.U8(&encoding_byte)) {
      return Truncated();
    }
    if (schema_type > static_cast<uint8_t>(ColumnType::kBool)) {
      return Corrupt("column '" + spec.name + "': bad schema type " +
                     std::to_string(schema_type));
    }
    if (encoding_byte > static_cast<uint8_t>(ColumnEncoding::kMixed)) {
      return Corrupt("column '" + spec.name + "': bad encoding " +
                     std::to_string(encoding_byte));
    }
    spec.type = static_cast<ColumnType>(schema_type);
    const auto encoding = static_cast<ColumnEncoding>(encoding_byte);
    std::string_view nulls;
    if (!r.Take(bitmap_bytes, &nulls)) return Truncated();

    numbers.clear();
    text_ids.clear();
    std::string_view bits;  // kBool values, kMixed cell types
    auto read_numbers = [&](bool as_int64) -> Status {
      if (r.remaining() < rows * 8) return Truncated();
      numbers.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        if (as_int64) {
          int64_t v = 0;
          r.I64(&v);
          numbers[i] = static_cast<double>(v);
        } else {
          r.F64(&numbers[i]);
        }
      }
      return Status::OK();
    };
    auto read_text_ids = [&]() -> Status {
      if (r.remaining() < rows * 4) return Truncated();
      text_ids.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        r.U32(&text_ids[i]);
        if (text_ids[i] >= pool.size()) {
          return Corrupt("column '" + spec.name + "': string id " +
                         std::to_string(text_ids[i]) + " out of range");
        }
      }
      return Status::OK();
    };

    switch (encoding) {
      case ColumnEncoding::kInt64:
      case ColumnEncoding::kDouble: {
        uint8_t has_text = 0;
        if (!r.U8(&has_text)) return Truncated();
        if (has_text > 1) return Corrupt("bad has_text flag");
        UCTR_RETURN_NOT_OK(read_numbers(encoding == ColumnEncoding::kInt64));
        if (has_text) UCTR_RETURN_NOT_OK(read_text_ids());
        break;
      }
      case ColumnEncoding::kString:
        UCTR_RETURN_NOT_OK(read_text_ids());
        break;
      case ColumnEncoding::kBool:
        if (!r.Take(bitmap_bytes, &bits)) return Truncated();
        break;
      case ColumnEncoding::kMixed:
        if (r.remaining() < rows * (1 + 8 + 4)) return Truncated();
        r.Take(rows, &bits);
        for (char t : bits) {
          const auto type = static_cast<uint8_t>(t);
          if (type > static_cast<uint8_t>(ValueType::kBool)) {
            return Corrupt("column '" + spec.name + "': bad cell type " +
                           std::to_string(type));
          }
        }
        UCTR_RETURN_NOT_OK(read_numbers(false));
        UCTR_RETURN_NOT_OK(read_text_ids());
        break;
    }

    // Cells start null; the null bitmap overrides every other array.
    const ValueType column_type =
        encoding == ColumnEncoding::kString ? ValueType::kString
        : encoding == ColumnEncoding::kBool ? ValueType::kBool
                                            : ValueType::kNumber;
    for (size_t i = 0; i < rows; ++i) {
      if (GetBit(nulls, i)) continue;
      const std::string& text = text_ids.empty() ? pool[0] : pool[text_ids[i]];
      const ValueType type =
          encoding == ColumnEncoding::kMixed
              ? static_cast<ValueType>(static_cast<uint8_t>(bits[i]))
              : column_type;
      Value& cell = cells[i][c];
      switch (type) {
        case ValueType::kString:
          cell = Value::String(text);
          break;
        case ValueType::kNumber:
          cell = text.empty() ? Value::Number(numbers[i])
                              : Value::NumberWithText(numbers[i], text);
          break;
        case ValueType::kBool:
          cell = Value::Bool(encoding == ColumnEncoding::kBool
                                 ? GetBit(bits, i)
                                 : numbers[i] != 0.0);
          break;
        case ValueType::kNull:
          break;
      }
    }
    specs.push_back(std::move(spec));
  }
  if (!r.done()) {
    return Corrupt(std::to_string(r.remaining()) +
                   " trailing bytes after last column");
  }

  Table table(std::move(name), Schema(std::move(specs)));
  for (Table::Row& row : cells) {
    UCTR_RETURN_NOT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

std::string Codec::Fingerprint(std::string_view encoded) {
  uint64_t h = Fnv1a64(encoded, kContentHashSeed);
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

std::string Codec::ToHex(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

Result<std::string> Codec::FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex decode: odd-length input (" +
                                   std::to_string(hex.size()) + " chars)");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("hex decode: non-hex digit at offset " +
                                     std::to_string(hi < 0 ? i : i + 1));
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace uctr::store
