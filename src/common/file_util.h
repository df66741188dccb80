#ifndef UCTR_COMMON_FILE_UTIL_H_
#define UCTR_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace uctr {

/// \brief Reads a whole file as bytes. NotFound when it cannot be opened.
Result<std::string> ReadFileText(const std::string& path);

/// \brief write(2) until all of `bytes` is down. Short writes and EINTR
/// are retried: serving installs signal handlers without SA_RESTART, so
/// interrupted syscalls are routine. `path` names the file in errors.
Status WriteFd(int fd, std::string_view bytes, const std::string& path);

/// \brief fsync(2), retried on EINTR. `path` names the file in errors.
Status SyncFd(int fd, const std::string& path);

/// \brief fsyncs the directory that holds `path`, making a rename or
/// create of `path` survive power loss.
Status SyncParentDir(const std::string& path);

/// \brief Write-to-temp + rename: readers (and a resuming process) only
/// ever see the old content or the complete new content, never a torn
/// write, even across power loss — the temp file is fsynced before the
/// rename and the directory after it. On failure the temp file is removed
/// and `path` is untouched. The temp file is `path + ".tmp"`, so
/// concurrent writers of the SAME path must be externally serialized;
/// distinct paths are safe.
///
/// This is the durability discipline every checkpoint/manifest writer in
/// the repo shares (gen checkpoints, store snapshots, selftrain state).
Status WriteFileAtomic(const std::string& path, const std::string& content);

}  // namespace uctr

#endif  // UCTR_COMMON_FILE_UTIL_H_
