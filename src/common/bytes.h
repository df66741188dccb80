#ifndef UCTR_COMMON_BYTES_H_
#define UCTR_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/hash.h"

/// Little-endian byte codec and the frame header shared by the binary
/// formats (store/codec.h, store/wal.h).
namespace uctr {

/// \brief Append-only little-endian writer over a std::string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Le(v, 2); }
  void U32(uint32_t v) { Le(v, 4); }
  void U64(uint64_t v) { Le(v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bytes(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }
  /// u32 length prefix, then the bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

 private:
  void Le(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      out_->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string* out_;
};

/// \brief Bounds-checked little-endian reader. Reads are total: each
/// either fills its output and advances, or returns false and leaves the
/// position unchanged — never reads past the end. Callers check element
/// counts against remaining() before sizing an allocation from an
/// untrusted length.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

  bool U8(uint8_t* out) { return Le(out); }
  bool U16(uint16_t* out) { return Le(out); }
  bool U32(uint32_t* out) { return Le(out); }
  bool U64(uint64_t* out) { return Le(out); }
  bool I64(int64_t* out) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    *out = static_cast<int64_t>(bits);
    return true;
  }
  bool F64(double* out) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
  /// The next `n` bytes as a view into the input.
  bool Take(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  bool Bytes(void* out, size_t n) {
    std::string_view view;
    if (!Take(n, &view)) return false;
    std::memcpy(out, view.data(), n);
    return true;
  }
  /// u32 length prefix, then the bytes (ByteWriter::Str).
  bool Str(std::string* out) {
    const size_t start = pos_;
    uint32_t len;
    std::string_view view;
    if (!U32(&len) || !Take(len, &view)) {
      pos_ = start;
      return false;
    }
    out->assign(view);
    return true;
  }

 private:
  template <typename T>
  bool Le(T* out) {
    if (remaining() < sizeof(T)) return false;
    uint64_t v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    *out = static_cast<T>(v);
    return true;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// \brief The 24-byte frame header of the store codec and the WAL:
///
///   offset  size  field
///   0       4     magic
///   4       4     u32 format version
///   8       8     u64 payload size in bytes
///   16      8     u64 Fnv1a64(payload, kContentHashSeed)
///
/// A format may put fields of its own between the header and the payload
/// (the store codec adds column and row counts); the checksum and size
/// cover the payload only.
inline constexpr size_t kFrameHeaderBytes = 24;

/// \brief Appends the frame header for `payload` to `out`.
inline void AppendFrameHeader(std::string* out, const char (&magic)[4],
                              uint32_t version, std::string_view payload) {
  ByteWriter w(out);
  w.Bytes(magic, sizeof(magic));
  w.U32(version);
  w.U64(payload.size());
  w.U64(Fnv1a64(payload, kContentHashSeed));
}

/// \brief Which check ReadFrame failed, in the order they run.
enum class FrameError : uint8_t {
  kNone,
  kShort,     ///< fewer bytes than the header (and any format fields)
  kMagic,     ///< wrong magic
  kVersion,   ///< version other than the one expected
  kSize,      ///< payload size above the limit or past the end of input
  kChecksum,  ///< payload present in full, checksum mismatch
};

struct Frame {
  FrameError error = FrameError::kShort;
  uint32_t version = 0;       ///< valid from kVersion on
  uint64_t payload_size = 0;  ///< valid from kSize on
  std::string_view payload;   ///< valid for kNone and kChecksum
};

/// \brief Parses the frame at the front of `bytes` and checks the payload
/// that starts `payload_at` (>= kFrameHeaderBytes) bytes in. Bytes after
/// the payload are left to the caller: a log holds the next record
/// there, a single frame rejects them.
inline Frame ReadFrame(std::string_view bytes, const char (&magic)[4],
                       uint32_t version,
                       size_t payload_at = kFrameHeaderBytes,
                       uint64_t max_payload = UINT64_MAX) {
  Frame frame;
  if (bytes.size() < payload_at) return frame;
  ByteReader r(bytes);
  std::string_view got_magic;
  uint64_t checksum = 0;
  r.Take(sizeof(magic), &got_magic);
  r.U32(&frame.version);
  r.U64(&frame.payload_size);
  r.U64(&checksum);
  if (got_magic != std::string_view(magic, sizeof(magic))) {
    frame.error = FrameError::kMagic;
  } else if (frame.version != version) {
    frame.error = FrameError::kVersion;
  } else if (frame.payload_size > max_payload ||
             frame.payload_size > bytes.size() - payload_at) {
    frame.error = FrameError::kSize;
  } else {
    frame.payload = bytes.substr(payload_at, frame.payload_size);
    frame.error = Fnv1a64(frame.payload, kContentHashSeed) == checksum
                      ? FrameError::kNone
                      : FrameError::kChecksum;
  }
  return frame;
}

}  // namespace uctr

#endif  // UCTR_COMMON_BYTES_H_
