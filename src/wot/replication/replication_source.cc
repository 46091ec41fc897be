#include "wot/replication/replication_source.h"

#include <algorithm>
#include <utility>

#include "wot/io/csv.h"
#include "wot/storage/fs_util.h"
#include "wot/storage/segment.h"
#include "wot/storage/storage_manager.h"
#include "wot/storage/wal.h"

namespace wot {
namespace replication {

using api::ApiStatus;
using api::ErrorResponse;
using api::ReplArtifactKind;
using api::ReplFetchResult;
using api::Response;

ReplicationSource::ReplicationSource(std::string dir, size_t num_shards,
                                     VersionProvider version_provider)
    : dir_(std::move(dir)),
      num_shards_(num_shards == 0 ? 1 : num_shards),
      version_provider_(std::move(version_provider)),
      metrics_(std::make_shared<telemetry::MetricRegistry>()),
      fetches_(metrics_->counter("replication.fetches")),
      ship_bytes_(metrics_->counter("replication.ship_bytes")) {}

std::string ReplicationSource::ShardDir(int64_t shard) const {
  if (num_shards_ <= 1) return dir_;
  return dir_ + "/shard-" + std::to_string(shard);
}

uint64_t ReplicationSource::SourceVersion(int64_t shard) const {
  return version_provider_ ? version_provider_(shard) : 0;
}

Response ReplicationSource::HandleReplFetch(
    const api::ReplFetchRequest& request) {
  if (request.shard < 0 ||
      static_cast<size_t>(request.shard) >= num_shards_) {
    return ErrorResponse(ApiStatus::InvalidArgument(
        "repl_fetch shard " + std::to_string(request.shard) +
        " out of range (this primary has " +
        std::to_string(num_shards_) + " shard(s))"));
  }
  fetches_->Increment();
  const std::string dir = ShardDir(request.shard);
  if (request.applied_version == 0) {
    return FetchSegment(request.shard, dir, request.offset);
  }
  return FetchWalDelta(request.shard, dir, request.applied_version,
                       request.offset);
}

Response ReplicationSource::HandleReplStatus(const api::ReplStatusRequest&) {
  api::ReplStatusResult result;
  result.role = static_cast<int64_t>(api::ReplRole::kPrimary);
  uint64_t version = 0;
  for (size_t s = 0; s < num_shards_; ++s) {
    version = std::max(version, SourceVersion(static_cast<int64_t>(s)));
  }
  result.applied_version = version;
  result.source_version = version;
  result.failovers = 0;
  Response response;
  response.payload = std::move(result);
  return response;
}

Response ReplicationSource::HandleReplPromote(const api::ReplPromoteRequest&) {
  return ErrorResponse(ApiStatus::InvalidArgument(
      "this server is already a primary; promotion applies to replicas"));
}

Response ReplicationSource::FetchSegment(int64_t shard,
                                         const std::string& dir,
                                         uint64_t offset) {
  Result<storage::StorageFileSet> files = storage::ListStorageFiles(dir);
  if (!files.ok()) {
    return ErrorResponse(
        ApiStatus::Internal("repl_fetch: " + files.status().message()));
  }
  const std::vector<storage::StorageFile>& segments =
      files.ValueOrDie().segments;
  // Newest CRC-valid segment wins; an unreadable newest (mid-rotation
  // crash debris) falls back to an older keeper, like recovery does.
  for (size_t i = segments.size(); i-- > 0;) {
    const storage::StorageFile& candidate = segments[i];
    Result<storage::SegmentInfo> info =
        storage::ReadSegmentInfo(candidate.path);
    if (!info.ok()) continue;
    const uint64_t size = info.ValueOrDie().file_bytes;
    if (offset > size) {
      return ErrorResponse(ApiStatus::InvalidArgument(
          "repl_fetch: segment offset " + std::to_string(offset) +
          " beyond segment-" + std::to_string(candidate.number) +
          " (" + std::to_string(size) + " bytes)"));
    }
    // Only this chunk is read: a bootstrap reads the file once in total,
    // not once per chunk.
    const size_t length =
        static_cast<size_t>(std::min<uint64_t>(kMaxChunkBytes, size - offset));
    Result<std::string> chunk =
        storage::ReadFileRange(candidate.path, offset, length);
    if (!chunk.ok()) continue;
    ReplFetchResult result;
    result.kind = static_cast<int64_t>(ReplArtifactKind::kSegment);
    result.base_version = candidate.number;
    result.target_version = candidate.number;
    result.source_version = SourceVersion(shard);
    result.offset = offset;
    result.total_bytes = size;
    result.payload = std::move(chunk).ValueOrDie();
    ship_bytes_->Increment(static_cast<int64_t>(result.payload.size()));
    Response response;
    response.payload = std::move(result);
    return response;
  }
  return ErrorResponse(ApiStatus::Internal(
      "repl_fetch: no loadable snapshot segment in '" + dir + "'"));
}

Response ReplicationSource::FetchWalDelta(int64_t shard,
                                          const std::string& dir,
                                          uint64_t epoch, uint64_t offset) {
  Result<storage::StorageFileSet> files = storage::ListStorageFiles(dir);
  if (!files.ok()) {
    return ErrorResponse(
        ApiStatus::Internal("repl_fetch: " + files.status().message()));
  }
  const storage::StorageFileSet& set = files.ValueOrDie();
  const storage::StorageFile* current = nullptr;
  const storage::StorageFile* next = nullptr;
  for (const storage::StorageFile& wal : set.wals) {
    if (wal.number == epoch) current = &wal;
    if (wal.number > epoch && (next == nullptr || wal.number < next->number)) {
      next = &wal;
    }
  }
  if (current == nullptr) {
    // The replica's epoch has been retired (it fell past retention) or
    // never existed here. A bootstrap response tells it to start over.
    return FetchSegment(shard, dir, 0);
  }

  Result<std::string> contents = ReadFileToString(current->path);
  if (!contents.ok()) {
    return ErrorResponse(
        ApiStatus::Internal("repl_fetch: " + contents.status().message()));
  }
  std::string bytes = std::move(contents).ValueOrDie();
  // Only the CRC-valid prefix ships; a torn tail on the primary's newest
  // file is invisible to replicas (it will be repaired or completed).
  Result<storage::WalScanStats> scanned =
      storage::ScanWalBuffer(bytes, nullptr);
  if (!scanned.ok()) {
    return ErrorResponse(
        ApiStatus::Internal("repl_fetch: wal '" + current->path +
                            "': " + scanned.status().message()));
  }
  const uint64_t valid = scanned.ValueOrDie().valid_bytes;
  if (offset > valid) {
    return ErrorResponse(ApiStatus::InvalidArgument(
        "repl_fetch: offset " + std::to_string(offset) + " beyond wal-" +
        std::to_string(epoch) + "'s " + std::to_string(valid) +
        " valid bytes (replica ahead of source?)"));
  }

  if (offset == valid) {
    if (next != nullptr) {
      // File exhausted and the chain moved on: switch epochs.
      return FetchWalDelta(shard, dir, next->number, 0);
    }
    ReplFetchResult result;
    result.kind = static_cast<int64_t>(ReplArtifactKind::kNone);
    result.base_version = epoch;
    result.target_version = 0;
    result.source_version = SourceVersion(shard);
    result.offset = offset;
    result.total_bytes = valid;
    Response response;
    response.payload = std::move(result);
    return response;
  }

  // Chop the window at the last complete record boundary <= the chunk
  // cap — but never below one record, so progress is guaranteed.
  const uint64_t window_end =
      std::min<uint64_t>(valid, offset + kMaxChunkBytes);
  uint64_t last_commit = 0;
  Result<storage::WalScanStats> window = storage::ScanWalBuffer(
      std::string_view(bytes).substr(offset, window_end - offset),
      [&last_commit](const storage::WalRecord& record) {
        if (record.type == storage::WalRecordType::kCommit) {
          last_commit = record.version;
        }
        return Status::OK();
      });
  if (!window.ok()) {
    return ErrorResponse(
        ApiStatus::Internal("repl_fetch: wal '" + current->path +
                            "': " + window.status().message()));
  }
  uint64_t ship = window.ValueOrDie().valid_bytes;
  if (ship == 0) {
    // The next record alone overflows the cap; ship exactly that one
    // frame (its length header is trusted — the full scan above already
    // CRC-validated everything up to `valid`).
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(bytes.data()) + offset;
    const uint64_t body = static_cast<uint64_t>(p[0]) |
                          static_cast<uint64_t>(p[1]) << 8 |
                          static_cast<uint64_t>(p[2]) << 16 |
                          static_cast<uint64_t>(p[3]) << 24;
    ship = std::min<uint64_t>(8 + body, valid - offset);
    last_commit = 0;
    Result<storage::WalScanStats> one = storage::ScanWalBuffer(
        std::string_view(bytes).substr(offset, ship),
        [&last_commit](const storage::WalRecord& record) {
          if (record.type == storage::WalRecordType::kCommit) {
            last_commit = record.version;
          }
          return Status::OK();
        });
    (void)one;
  }

  ReplFetchResult result;
  result.kind = static_cast<int64_t>(ReplArtifactKind::kWalDelta);
  result.base_version = epoch;
  result.target_version = last_commit;
  result.source_version = SourceVersion(shard);
  result.offset = offset;
  result.total_bytes = valid;
  result.payload = bytes.substr(offset, ship);
  ship_bytes_->Increment(static_cast<int64_t>(result.payload.size()));
  Response response;
  response.payload = std::move(result);
  return response;
}

}  // namespace replication
}  // namespace wot
