#include "common/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace uctr {

Result<std::string> ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFd(int fd, std::string_view bytes, const std::string& path) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("write " + path + ": " +
                                 std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SyncFd(int fd, const std::string& path) {
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    return Status::Unavailable("fsync " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status SyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Unavailable("open directory " + dir + ": " +
                               std::strerror(errno));
  }
  Status status = SyncFd(fd, dir);
  ::close(fd);
  return status;
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open " + tmp + " for writing: " +
                            std::strerror(errno));
  }
  Status status = WriteFd(fd, content, tmp);
  if (status.ok()) status = SyncFd(fd, tmp);
  if (::close(fd) != 0 && status.ok()) {
    status = Status::Unavailable("close " + tmp + ": " + std::strerror(errno));
  }
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::Internal("rename " + tmp + " -> " + path + ": " +
                              std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncParentDir(path);
}

}  // namespace uctr
