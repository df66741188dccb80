#ifndef UCTR_STORE_CODEC_H_
#define UCTR_STORE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "store/columnar.h"

namespace uctr::store {

/// \brief Versioned binary serialization for ColumnarTable.
///
/// Layout: the shared 24-byte frame header of common/bytes.h (magic
/// "UCTB", codec version 1, payload size, payload checksum), then u32
/// column count and u32 row count — 32 header bytes — then the payload.
///
/// The payload is the table name, the string pool, then each column
/// (name, schema type, encoding, null bitmap, encoding-specific arrays),
/// every variable-length field length-prefixed with a u32. All numeric
/// array data is fixed-width little-endian, so the column arrays in a
/// file produced by Encode can be mapped and walked in place by a future
/// mmap reader — nothing in the layout requires a deserialization pass
/// to locate.
///
/// Decode is total: any byte string either yields a valid ColumnarTable
/// or an error Status. Truncation, trailing garbage, bad magic, version
/// skew, checksum mismatch, out-of-range enums/string ids, and
/// length-prefix overflows are all detected before any allocation sized
/// from untrusted input.
class Codec {
 public:
  static constexpr char kMagic[4] = {'U', 'C', 'T', 'B'};
  static constexpr uint32_t kVersion = 1;
  static constexpr size_t kHeaderBytes = 32;

  /// \brief Serializes `table`. The output is canonical: encoding the
  /// result of Decode (or of FromTable on a round-tripped Table) yields
  /// byte-identical output, which makes content fingerprints stable.
  static std::string Encode(const ColumnarTable& table);

  /// \brief Parses and fully validates `bytes` (see class comment).
  static Result<ColumnarTable> Decode(std::string_view bytes);

  /// \brief Content fingerprint of encoded bytes: Fnv1a64 with
  /// kContentHashSeed (common/hash.h) rendered as 16 lowercase hex chars.
  static std::string Fingerprint(std::string_view encoded);

  /// \brief Lowercase-hex transport encoding for codec bytes, used where
  /// the bytes must ride inside a JSON string field (router read-repair's
  /// get_table / put_table table_hex). FromHex rejects odd lengths and
  /// non-hex digits.
  static std::string ToHex(std::string_view bytes);
  static Result<std::string> FromHex(std::string_view hex);
};

}  // namespace uctr::store

#endif  // UCTR_STORE_CODEC_H_
