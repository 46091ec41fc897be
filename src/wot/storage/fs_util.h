// Small POSIX file helpers shared by the storage layer (WAL, segments,
// meta files). All errors surface as Status — no exceptions, no aborts.
#ifndef WOT_STORAGE_FS_UTIL_H_
#define WOT_STORAGE_FS_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "wot/util/result.h"

namespace wot {
namespace storage {

/// \brief write(2) until \p bytes is fully written (EINTR-safe).
Status WriteAllFd(int fd, std::string_view bytes);

/// \brief Reads exactly \p length bytes of \p path starting at \p offset
/// (pread, EINTR-safe). A file that ends early is an IOError.
Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                  size_t length);

/// \brief fsyncs the directory itself so a just-renamed entry is durable.
Status SyncDir(const std::string& dir);

/// \brief The directory component of \p path ("." when none).
std::string DirnameOf(const std::string& path);

/// \brief Durable temp-then-rename replacement of \p path: \p produce
/// writes the contents to the open fd of "<path>.tmp", which is then
/// fsynced, renamed over \p path, and the parent directory fsynced. The
/// destination is either the complete new contents or untouched — never
/// a torn mix. On any error (the producer's included) the temp file is
/// removed and the error returned.
Status AtomicWriteFileWith(const std::string& path,
                           const std::function<Status(int fd)>& produce);

/// \brief AtomicWriteFileWith for contents already in memory.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

/// \brief mkdir -p (existing directories are fine).
Status EnsureDir(const std::string& dir);

}  // namespace storage
}  // namespace wot

#endif  // WOT_STORAGE_FS_UTIL_H_
