#include "wot/storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "wot/io/byte_reader.h"
#include "wot/io/byte_writer.h"
#include "wot/io/crc32.h"
#include "wot/io/csv.h"
#include "wot/storage/fs_util.h"
#include "wot/util/logging.h"

namespace wot {
namespace storage {
namespace {

// A mutation record is one name plus a handful of fixed fields; anything
// claiming to be larger than this is a torn/garbage length field.
constexpr uint32_t kMaxWalRecordBytes = 1u << 24;

// Batch-policy thresholds: fsync when this much is outstanding.
constexpr uint64_t kBatchSyncRecords = 64;
constexpr uint64_t kBatchSyncBytes = 256u << 10;

}  // namespace

Result<FsyncPolicy> FsyncPolicyFromName(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "off") return FsyncPolicy::kOff;
  return Status::InvalidArgument("unknown fsync policy '" +
                                 std::string(name) +
                                 "' (expected always | batch | off)");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "unknown";
}

std::string EncodeWalRecord(const WalRecord& record) {
  ByteWriter body;
  body.PutU8(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kAddUser:
    case WalRecordType::kAddCategory:
      body.PutString(record.name);
      break;
    case WalRecordType::kAddObject:
      body.PutU32(record.a).PutString(record.name);
      break;
    case WalRecordType::kAddReview:
      body.PutU32(record.a).PutU32(record.b);
      break;
    case WalRecordType::kAddRating:
      body.PutU32(record.a).PutU32(record.b).PutDouble(record.value);
      break;
    case WalRecordType::kCommit:
      body.PutU64(record.version);
      break;
  }
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(body.size()));
  frame.PutU32(Crc32(body.buffer().data(), body.size()));
  frame.PutRaw(body.buffer());
  return frame.Take();
}

Result<WalRecord> DecodeWalRecord(std::string_view body) {
  ByteReader reader(body);
  WalRecord record;
  uint8_t type = reader.GetU8();
  if (type < static_cast<uint8_t>(WalRecordType::kAddUser) ||
      type > static_cast<uint8_t>(WalRecordType::kCommit)) {
    return Status::Corruption("unknown wal record type " +
                              std::to_string(type));
  }
  record.type = static_cast<WalRecordType>(type);
  switch (record.type) {
    case WalRecordType::kAddUser:
    case WalRecordType::kAddCategory:
      record.name = reader.GetString();
      break;
    case WalRecordType::kAddObject:
      record.a = reader.GetU32();
      record.name = reader.GetString();
      break;
    case WalRecordType::kAddReview:
      record.a = reader.GetU32();
      record.b = reader.GetU32();
      break;
    case WalRecordType::kAddRating:
      record.a = reader.GetU32();
      record.b = reader.GetU32();
      record.value = reader.GetDouble();
      break;
    case WalRecordType::kCommit:
      record.version = reader.GetU64();
      break;
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("wal record body has trailing bytes");
  }
  return record;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, FsyncPolicy policy, uint64_t initial_records) {
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError("cannot open wal '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat wal '" + path +
                           "': " + std::strerror(err));
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, fd, policy, initial_records,
                    static_cast<uint64_t>(st.st_size)));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (policy_ != FsyncPolicy::kOff && unsynced_records_ > 0) {
      ::fsync(fd_);
    }
    ::close(fd_);
  }
}

Status WalWriter::Append(const WalRecord& record) {
  std::string frame = EncodeWalRecord(record);
  WOT_RETURN_IF_ERROR(WriteAllFd(fd_, frame));
  ++records_;
  bytes_ += frame.size();
  ++unsynced_records_;
  unsynced_bytes_ += frame.size();
  const bool want_sync =
      policy_ == FsyncPolicy::kAlways ||
      (policy_ == FsyncPolicy::kBatch &&
       (unsynced_records_ >= kBatchSyncRecords ||
        unsynced_bytes_ >= kBatchSyncBytes));
  if (want_sync) {
    return Sync();
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (policy_ == FsyncPolicy::kOff || unsynced_records_ == 0) {
    unsynced_records_ = 0;
    unsynced_bytes_ = 0;
    return Status::OK();
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError("wal fsync failed on '" + path_ +
                           "': " + std::strerror(errno));
  }
  unsynced_records_ = 0;
  unsynced_bytes_ = 0;
  return Status::OK();
}

Result<WalScanStats> ScanWalBuffer(
    std::string_view bytes,
    const std::function<Status(const WalRecord&)>& visitor) {
  WalScanStats stats;
  size_t pos = 0;
  const size_t size = bytes.size();
  while (pos + 8 <= size) {
    const uint32_t body_length = LoadLE32(bytes.data() + pos);
    const uint32_t crc = LoadLE32(bytes.data() + pos + 4);
    if (body_length > kMaxWalRecordBytes ||
        pos + 8 + body_length > size) {
      break;  // torn tail: frame runs past the buffer (or garbage length)
    }
    std::string_view body(bytes.data() + pos + 8, body_length);
    if (Crc32(body.data(), body.size()) != crc) {
      break;  // torn tail: the body never fully hit the disk
    }
    WOT_ASSIGN_OR_RETURN(WalRecord record, DecodeWalRecord(body));
    if (visitor) {
      WOT_RETURN_IF_ERROR(visitor(record));
    }
    ++stats.records;
    if (record.type == WalRecordType::kCommit) {
      ++stats.commit_records;
    }
    pos += 8 + body_length;
  }
  stats.valid_bytes = pos;
  stats.truncated_bytes = size - pos;
  return stats;
}

Result<WalScanStats> ScanWal(
    const std::string& path, bool repair,
    const std::function<Status(const WalRecord&)>& visitor) {
  WOT_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  WOT_ASSIGN_OR_RETURN(WalScanStats stats,
                       ScanWalBuffer(contents, visitor));
  const size_t pos = static_cast<size_t>(stats.valid_bytes);
  if (repair && stats.truncated_bytes > 0) {
    WOT_LOG(Warning) << "wal '" << path << "': truncating "
                     << stats.truncated_bytes
                     << " torn tail bytes after " << stats.records
                     << " valid records";
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      return Status::IOError("cannot truncate wal '" + path +
                             "': " + std::strerror(errno));
    }
  }
  return stats;
}

}  // namespace storage
}  // namespace wot
