#include "wot/storage/fs_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace wot {
namespace storage {

Status WriteAllFd(int fd, std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write failed: ") +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                  size_t length) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  std::string contents(length, '\0');
  size_t done = 0;
  while (done < length) {
    ssize_t n = ::pread(fd, contents.data() + done, length - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IOError("cannot read '" + path +
                             "': " + std::strerror(err));
    }
    if (n == 0) {
      ::close(fd);
      return Status::IOError("'" + path + "' ends before byte " +
                             std::to_string(offset + length));
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return contents;
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open directory '" + dir +
                           "': " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("cannot fsync directory '" + dir +
                           "': " + std::strerror(err));
  }
  ::close(fd);
  return Status::OK();
}

std::string DirnameOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status AtomicWriteFileWith(const std::string& path,
                           const std::function<Status(int fd)>& produce) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(),
                  O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create '" + tmp +
                           "': " + std::strerror(errno));
  }
  Status status = produce(fd);
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IOError("cannot fsync '" + tmp +
                             "': " + std::strerror(errno));
  }
  ::close(fd);
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename '" + tmp + "' to '" + path +
                           "': " + std::strerror(err));
  }
  return SyncDir(DirnameOf(path));
}

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  return AtomicWriteFileWith(
      path, [contents](int fd) { return WriteAllFd(fd, contents); });
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError("cannot create directory '" + dir +
                         "': " + std::strerror(errno));
}

}  // namespace storage
}  // namespace wot
