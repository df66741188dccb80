#include "store/codec.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/hash.h"

namespace uctr::store {

namespace {

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("table codec: " + what);
}

Status Truncated() { return Corrupt("truncated payload"); }

}  // namespace

std::string Codec::Encode(const ColumnarTable& table) {
  const size_t rows = table.num_rows();
  const size_t bitmap_bytes = (rows + 7) / 8;

  std::string payload;
  ByteWriter w(&payload);
  w.Str(table.name());
  w.U32(static_cast<uint32_t>(table.pool().size()));
  for (const std::string& s : table.pool().strings()) w.Str(s);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    w.Str(col.name);
    w.U8(static_cast<uint8_t>(col.schema_type));
    w.U8(static_cast<uint8_t>(col.encoding));
    w.Bytes(col.null_bitmap.data(), bitmap_bytes);
    switch (col.encoding) {
      case ColumnEncoding::kInt64:
        w.U8(col.text_ids.empty() ? 0 : 1);
        for (int64_t v : col.ints) w.I64(v);
        for (uint32_t id : col.text_ids) w.U32(id);
        break;
      case ColumnEncoding::kDouble:
        w.U8(col.text_ids.empty() ? 0 : 1);
        for (double v : col.doubles) w.F64(v);
        for (uint32_t id : col.text_ids) w.U32(id);
        break;
      case ColumnEncoding::kString:
        for (uint32_t id : col.text_ids) w.U32(id);
        break;
      case ColumnEncoding::kBool:
        w.Bytes(col.bool_bits.data(), bitmap_bytes);
        break;
      case ColumnEncoding::kMixed:
        w.Bytes(col.cell_types.data(), rows);
        for (double v : col.doubles) w.F64(v);
        for (uint32_t id : col.text_ids) w.U32(id);
        break;
    }
  }

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  AppendFrameHeader(&out, kMagic, kVersion, payload);
  ByteWriter h(&out);
  h.U32(static_cast<uint32_t>(table.num_columns()));
  h.U32(static_cast<uint32_t>(rows));
  out += payload;
  return out;
}

Result<ColumnarTable> Codec::Decode(std::string_view bytes) {
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

  const size_t rows = num_rows;
  const size_t bitmap_bytes = (rows + 7) / 8;
  ColumnarTable table;
  table.num_rows_ = rows;

  ByteReader r(frame.payload);
  if (!r.Str(&table.name_)) return Truncated();
  uint32_t pool_count;
  if (!r.U32(&pool_count)) return Truncated();
  if (pool_count == 0) return Corrupt("empty string pool");
  // Each pool entry costs at least its 4-byte length prefix, so this
  // bounds the vector reserve by actual input size.
  if (static_cast<uint64_t>(pool_count) * 4 > r.remaining()) {
    return Corrupt("string pool count exceeds payload");
  }
  std::vector<std::string> strings;
  strings.reserve(pool_count);
  for (uint32_t i = 0; i < pool_count; ++i) {
    std::string s;
    if (!r.Str(&s)) return Truncated();
    strings.push_back(std::move(s));
  }
  if (!strings[0].empty()) return Corrupt("pool id 0 is not empty string");
  table.pool_ = StringPool::FromStrings(std::move(strings));

  table.columns_.reserve(
      std::min<size_t>(num_columns, r.remaining() / 2 + 1));
  for (uint32_t c = 0; c < num_columns; ++c) {
    Column col;
    if (!r.Str(&col.name)) return Truncated();
    uint8_t schema_type, encoding;
    if (!r.U8(&schema_type) || !r.U8(&encoding)) return Truncated();
    if (schema_type > static_cast<uint8_t>(ColumnType::kBool)) {
      return Corrupt("column '" + col.name + "': bad schema type " +
                     std::to_string(schema_type));
    }
    if (encoding > static_cast<uint8_t>(ColumnEncoding::kMixed)) {
      return Corrupt("column '" + col.name + "': bad encoding " +
                     std::to_string(encoding));
    }
    col.schema_type = static_cast<ColumnType>(schema_type);
    col.encoding = static_cast<ColumnEncoding>(encoding);
    if (r.remaining() < bitmap_bytes) return Truncated();
    col.null_bitmap.resize(bitmap_bytes);
    if (!r.Bytes(col.null_bitmap.data(), bitmap_bytes)) return Truncated();

    auto read_text_ids = [&]() -> Status {
      if (r.remaining() < rows * 4) return Truncated();
      col.text_ids.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        if (!r.U32(&col.text_ids[i])) return Truncated();
        if (!table.pool_.valid(col.text_ids[i])) {
          return Corrupt("column '" + col.name + "': string id " +
                         std::to_string(col.text_ids[i]) + " out of range");
        }
      }
      return Status::OK();
    };

    switch (col.encoding) {
      case ColumnEncoding::kInt64: {
        uint8_t has_text;
        if (!r.U8(&has_text)) return Truncated();
        if (has_text > 1) return Corrupt("bad has_text flag");
        if (r.remaining() < rows * 8) return Truncated();
        col.ints.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          if (!r.I64(&col.ints[i])) return Truncated();
        }
        if (has_text) UCTR_RETURN_NOT_OK(read_text_ids());
        break;
      }
      case ColumnEncoding::kDouble: {
        uint8_t has_text;
        if (!r.U8(&has_text)) return Truncated();
        if (has_text > 1) return Corrupt("bad has_text flag");
        if (r.remaining() < rows * 8) return Truncated();
        col.doubles.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          if (!r.F64(&col.doubles[i])) return Truncated();
        }
        if (has_text) UCTR_RETURN_NOT_OK(read_text_ids());
        break;
      }
      case ColumnEncoding::kString:
        UCTR_RETURN_NOT_OK(read_text_ids());
        break;
      case ColumnEncoding::kBool:
        if (r.remaining() < bitmap_bytes) return Truncated();
        col.bool_bits.resize(bitmap_bytes);
        if (!r.Bytes(col.bool_bits.data(), bitmap_bytes)) return Truncated();
        break;
      case ColumnEncoding::kMixed:
        if (r.remaining() < rows * (1 + 8 + 4)) return Truncated();
        col.cell_types.resize(rows);
        if (!r.Bytes(col.cell_types.data(), rows)) return Truncated();
        for (uint8_t t : col.cell_types) {
          if (t > static_cast<uint8_t>(ValueType::kBool)) {
            return Corrupt("column '" + col.name + "': bad cell type " +
                           std::to_string(t));
          }
        }
        col.doubles.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          if (!r.F64(&col.doubles[i])) return Truncated();
        }
        UCTR_RETURN_NOT_OK(read_text_ids());
        break;
    }
    table.columns_.push_back(std::move(col));
  }
  if (!r.done()) {
    return Corrupt(std::to_string(r.remaining()) +
                   " trailing bytes after last column");
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
