#ifndef UCTR_STORE_WAL_H_
#define UCTR_STORE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace uctr::store {

/// \brief When an appended WAL record is forced to the platter.
///
/// The ack contract (see DurableStore) is "acked = appended": a put is
/// acknowledged only after its record has been written to the log file.
///   - kAlways:   fsync after every append. An ack survives kill -9 AND
///                power loss. The slowest mode (one device flush per put).
///   - kInterval: fsync at most once per `fsync_interval_ms`. An ack
///                survives kill -9 (the bytes are in the page cache, owned
///                by the kernel, not the dead process); up to one
///                interval's worth of acks can be lost to power failure.
///   - kNever:    never fsync from the hot path. Same kill -9 guarantee as
///                kInterval; everything since boot is exposed to power
///                loss. For benchmarks and tests.
enum class FsyncMode : uint8_t { kAlways = 0, kInterval = 1, kNever = 2 };

const char* FsyncModeToString(FsyncMode mode);
Result<FsyncMode> ParseFsyncMode(std::string_view text);

/// \brief Append-only log of store-codec-encoded tables.
///
/// Each record is the shared 24-byte frame header of common/bytes.h
/// (magic "UWAL", record version 1, payload size, payload checksum)
/// followed by the payload: the table's canonical store::Codec bytes.
///
/// The payload is exactly what Codec::Encode produced, so the content
/// fingerprint of a replayed record is computable without decoding and a
/// recovered table is byte-identical to the acked one by construction.
///
/// Recovery semantics (Scan), by the FrameError ReadFrame reports:
///   - kNone: the record is delivered to the callback;
///   - kChecksum: a fully-present record with a bad payload is SKIPPED
///     (counted in `store_wal_corrupt_records_total`) and the scan
///     continues at the next record — one flipped sector must not take
///     out the rest of the log;
///   - kShort, kMagic, kVersion, kSize: a torn tail — an append cut
///     mid-record by kill -9, or a length past the end of the file or
///     above kMaxPayloadBytes — ends the scan; the caller truncates the
///     file there (TruncateTo) so the next append starts from a clean
///     record boundary.
///
/// Thread safety: Append/Sync must be externally serialized (DurableStore
/// holds its mutex across them); Scan/TruncateTo are static and touch
/// only their path argument.
class Wal {
 public:
  static constexpr char kMagic[4] = {'U', 'W', 'A', 'L'};
  static constexpr uint32_t kVersion = 1;
  static constexpr size_t kRecordHeaderBytes = kFrameHeaderBytes;
  /// A record length beyond this is treated as tail corruption: no table
  /// the serving path accepts encodes anywhere near it, and trusting a
  /// corrupt u64 length would make recovery "skip" past the whole log.
  static constexpr uint64_t kMaxPayloadBytes = 1ull << 32;

  struct Options {
    FsyncMode fsync = FsyncMode::kInterval;
    int fsync_interval_ms = 50;
    /// Metrics sink; null = obs::DefaultRegistry().
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// \brief Opens (creating if absent) `path` for appending. The write
  /// position is the current end of file — run Scan + TruncateTo first so
  /// a torn tail is repaired before new records land after it.
  static Result<Wal> Open(const std::string& path, Options options);

  Wal(Wal&& other) noexcept;
  Wal& operator=(Wal&& other) noexcept;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  ~Wal();

  /// \brief Appends one record and applies the fsync policy. On OK the
  /// record is durable per the FsyncMode contract and `*payload_offset`
  /// (when non-null) is the file offset of the payload bytes.
  Status Append(std::string_view payload, uint64_t* payload_offset = nullptr);

  /// \brief Forces everything appended so far to the device.
  Status Sync();

  /// \brief Current end-of-log offset (header+payload bytes appended).
  uint64_t size_bytes() const { return end_offset_; }
  const std::string& path() const { return path_; }

  /// \brief Serializes one record (header + payload) to a byte string —
  /// the exact bytes Append writes. Snapshot files reuse this framing.
  static std::string EncodeRecord(std::string_view payload);

  /// \brief Replays `path` (see recovery semantics above). Invokes
  /// `on_record(payload_offset, payload)` for each valid record in log
  /// order and returns the number of valid bytes — the offset where the
  /// torn tail (if any) begins, equal to the file size for a clean log.
  /// A missing file scans as empty (returns 0): a store directory's first
  /// boot has no log yet.
  static Result<uint64_t> Scan(
      const std::string& path,
      const std::function<void(uint64_t payload_offset, std::string payload)>&
          on_record,
      obs::MetricsRegistry* metrics = nullptr);

  /// \brief Truncates `path` to `valid_bytes` (torn-tail repair).
  static Status TruncateTo(const std::string& path, uint64_t valid_bytes);

 private:
  Wal(std::string path, int fd, uint64_t end_offset, Options options);

  std::string path_;
  int fd_ = -1;
  uint64_t end_offset_ = 0;
  Options options_;
  /// Steady-clock micros of the last fsync (kInterval bookkeeping).
  int64_t last_sync_us_ = 0;
  obs::Counter* appends_ = nullptr;
  obs::Counter* fsyncs_ = nullptr;
};

}  // namespace uctr::store

#endif  // UCTR_STORE_WAL_H_
