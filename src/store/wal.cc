#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/file_util.h"
#include "fault/fault.h"

namespace uctr::store {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* FsyncModeToString(FsyncMode mode) {
  switch (mode) {
    case FsyncMode::kAlways:
      return "always";
    case FsyncMode::kInterval:
      return "interval";
    case FsyncMode::kNever:
      return "never";
  }
  return "unknown";
}

Result<FsyncMode> ParseFsyncMode(std::string_view text) {
  if (text == "always") return FsyncMode::kAlways;
  if (text == "interval") return FsyncMode::kInterval;
  if (text == "never") return FsyncMode::kNever;
  return Status::InvalidArgument("unknown fsync mode '" + std::string(text) +
                                 "' (expected always|interval|never)");
}

Wal::Wal(std::string path, int fd, uint64_t end_offset, Options options)
    : path_(std::move(path)),
      fd_(fd),
      end_offset_(end_offset),
      options_(options),
      last_sync_us_(SteadyNowUs()) {
  obs::MetricsRegistry& m =
      options_.metrics ? *options_.metrics : obs::DefaultRegistry();
  appends_ = m.counter("store_wal_appends_total");
  fsyncs_ = m.counter("store_wal_fsyncs_total");
}

Wal::Wal(Wal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      end_offset_(other.end_offset_),
      options_(other.options_),
      last_sync_us_(other.last_sync_us_),
      appends_(other.appends_),
      fsyncs_(other.fsyncs_) {
  other.fd_ = -1;
}

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    end_offset_ = other.end_offset_;
    options_ = other.options_;
    last_sync_us_ = other.last_sync_us_;
    appends_ = other.appends_;
    fsyncs_ = other.fsyncs_;
    other.fd_ = -1;
  }
  return *this;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Wal> Wal::Open(const std::string& path, Options options) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Unavailable("wal open '" + path +
                               "': " + std::strerror(errno));
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("wal seek '" + path + "': " + err);
  }
  return Wal(path, fd, static_cast<uint64_t>(end), options);
}

std::string Wal::EncodeRecord(std::string_view payload) {
  std::string out;
  out.reserve(kRecordHeaderBytes + payload.size());
  AppendFrameHeader(&out, kMagic, kVersion, payload);
  out.append(payload.data(), payload.size());
  return out;
}

Status Wal::Append(std::string_view payload, uint64_t* payload_offset) {
  UCTR_RETURN_NOT_OK(UCTR_FAULT_POINT("store.wal_append"));
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "wal append: payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte record limit");
  }
  const std::string record = EncodeRecord(payload);
  UCTR_RETURN_NOT_OK(WriteFd(fd_, record, path_));
  if (payload_offset != nullptr) {
    *payload_offset = end_offset_ + kRecordHeaderBytes;
  }
  end_offset_ += record.size();
  appends_->Increment();

  switch (options_.fsync) {
    case FsyncMode::kAlways:
      return Sync();
    case FsyncMode::kInterval: {
      const int64_t now_us = SteadyNowUs();
      if (now_us - last_sync_us_ >=
          static_cast<int64_t>(options_.fsync_interval_ms) * 1000) {
        return Sync();
      }
      return Status::OK();
    }
    case FsyncMode::kNever:
      return Status::OK();
  }
  return Status::OK();
}

Status Wal::Sync() {
  UCTR_RETURN_NOT_OK(UCTR_FAULT_POINT("store.wal_fsync"));
  UCTR_RETURN_NOT_OK(SyncFd(fd_, path_));
  last_sync_us_ = SteadyNowUs();
  fsyncs_->Increment();
  return Status::OK();
}

Result<uint64_t> Wal::Scan(
    const std::string& path,
    const std::function<void(uint64_t payload_offset, std::string payload)>&
        on_record,
    obs::MetricsRegistry* metrics) {
  obs::MetricsRegistry& m = metrics ? *metrics : obs::DefaultRegistry();

  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return uint64_t{0};

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("wal scan: cannot open '" + path + "'");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Unavailable("wal scan: read error on '" + path + "'");
  }

  uint64_t pos = 0;
  uint64_t valid_bytes = 0;
  while (pos < bytes.size()) {
    const Frame frame =
        ReadFrame(std::string_view(bytes).substr(pos), kMagic, kVersion,
                  kRecordHeaderBytes, kMaxPayloadBytes);
    // A short header, bad magic, version skew, or an implausible length
    // all read as "the log ends here": they are what a record cut
    // mid-write looks like, and anything after an unframed region is
    // unwalkable.
    if (frame.error != FrameError::kNone &&
        frame.error != FrameError::kChecksum) {
      break;
    }
    pos += kRecordHeaderBytes + frame.payload.size();
    valid_bytes = pos;
    if (frame.error == FrameError::kChecksum) {
      // A complete record with a bad checksum is bit rot, not a torn
      // tail; skip just this record and keep replaying.
      m.counter("store_wal_corrupt_records_total")->Increment();
      continue;
    }
    on_record(pos - frame.payload.size(), std::string(frame.payload));
  }
  if (valid_bytes < bytes.size()) {
    m.counter("store_wal_truncated_bytes_total")
        ->Increment(bytes.size() - valid_bytes);
  }
  return valid_bytes;
}

Status Wal::TruncateTo(const std::string& path, uint64_t valid_bytes) {
  while (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    if (errno == EINTR) continue;
    return Status::Unavailable("wal truncate '" + path +
                               "': " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace uctr::store
