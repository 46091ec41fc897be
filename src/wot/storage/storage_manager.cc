#include "wot/storage/storage_manager.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "wot/storage/fs_util.h"
#include "wot/storage/segment.h"
#include "wot/telemetry/timed.h"
#include "wot/util/logging.h"

namespace wot {
namespace storage {
namespace {

/// Parses "<prefix><number><suffix>" (all-digit number); nullopt-style
/// via the bool return because the number may legitimately be huge.
bool ParseNumberedName(const std::string& name, std::string_view prefix,
                       std::string_view suffix, uint64_t* number) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
      0) {
    return false;
  }
  const std::string digits = name.substr(
      prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end != digits.c_str() + digits.size()) return false;
  *number = static_cast<uint64_t>(value);
  return true;
}

Result<uint64_t> FileSizeOf(const std::string& path) {
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

Status ApplyWalRecord(TrustService& service, const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kAddUser:
      service.AddUser(record.name);
      return Status::OK();
    case WalRecordType::kAddCategory:
      service.AddCategory(record.name);
      return Status::OK();
    case WalRecordType::kAddObject: {
      Result<ObjectId> added =
          service.AddObject(CategoryId(record.a), record.name);
      if (!added.ok()) {
        return Status::Corruption("wal replay: add_object rejected: " +
                                  added.status().message());
      }
      return Status::OK();
    }
    case WalRecordType::kAddReview: {
      Result<ReviewId> added =
          service.AddReview(UserId(record.a), ObjectId(record.b));
      if (!added.ok()) {
        return Status::Corruption("wal replay: add_review rejected: " +
                                  added.status().message());
      }
      return Status::OK();
    }
    case WalRecordType::kAddRating: {
      Status added = service.AddRating(UserId(record.a),
                                       ReviewId(record.b), record.value);
      if (!added.ok()) {
        return Status::Corruption("wal replay: add_rating rejected: " +
                                  added.message());
      }
      return Status::OK();
    }
    case WalRecordType::kCommit: {
      Result<TrustService::CommitStats> stats = service.Commit();
      if (!stats.ok()) {
        return Status::Corruption("wal replay: commit failed: " +
                                  stats.status().message());
      }
      if (stats.ValueOrDie().version != record.version) {
        return Status::Corruption(
            "wal replay: commit produced version " +
            std::to_string(stats.ValueOrDie().version) +
            " but the log recorded version " +
            std::to_string(record.version));
      }
      return Status::OK();
    }
  }
  return Status::Corruption("wal replay: unhandled record type");
}

std::string SegmentPath(const std::string& dir, uint64_t version) {
  return dir + "/segment-" + std::to_string(version) + ".seg";
}

std::string WalPath(const std::string& dir, uint64_t epoch) {
  return dir + "/wal-" + std::to_string(epoch) + ".log";
}

Result<StorageFileSet> ListStorageFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("cannot open data directory '" + dir +
                           "': " + std::strerror(errno));
  }
  StorageFileSet files;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    uint64_t number = 0;
    if (ParseNumberedName(name, "segment-", ".seg", &number)) {
      files.segments.push_back({dir + "/" + name, number});
    } else if (ParseNumberedName(name, "wal-", ".log", &number)) {
      files.wals.push_back({dir + "/" + name, number});
    }
  }
  ::closedir(d);
  auto by_number = [](const StorageFile& a, const StorageFile& b) {
    return a.number < b.number;
  };
  std::sort(files.segments.begin(), files.segments.end(), by_number);
  std::sort(files.wals.begin(), files.wals.end(), by_number);
  return files;
}

StorageManager::StorageManager(std::string dir, StorageOptions options,
                               std::unique_ptr<WalWriter> wal,
                               uint64_t segment_epoch,
                               uint64_t segment_bytes,
                               uint64_t replayed_records)
    : dir_(std::move(dir)),
      options_(options),
      metrics_(std::make_shared<telemetry::MetricRegistry>()),
      wal_append_ns_(metrics_->histogram("storage.wal_append_ns")),
      wal_fsync_ns_(metrics_->histogram("storage.wal_fsync_ns")),
      rotation_ns_(metrics_->histogram("storage.rotation_ns")),
      commit_batch_records_(
          metrics_->histogram("storage.commit_batch_records")),
      rotations_(metrics_->counter("storage.rotations")),
      rotation_bytes_(metrics_->counter("storage.rotation_bytes")),
      segment_write_ns_(metrics_->histogram("storage.segment_write_ns")),
      wal_(std::move(wal)),
      segment_epoch_(segment_epoch),
      segment_bytes_(segment_bytes),
      replayed_records_(replayed_records) {
  if (options_.background_rotation) {
    rotation_thread_ = std::thread([this] { RotationLoop(); });
  }
}

StorageManager::~StorageManager() {
  if (rotation_thread_.joinable()) {
    {
      MutexLock lock(rotation_mu_);
      rotation_stop_ = true;
      rotation_cv_.NotifyAll();
    }
    rotation_thread_.join();
  }
}

void StorageManager::AppendMutation(const WalRecord& record) {
  if (!degraded_.ok()) return;
  telemetry::Timer timer;
  Status status = wal_->Append(record);
  timer.RecordInto(wal_append_ns_);
  if (status.ok()) {
    ++records_since_commit_;
  }
  if (!status.ok()) {
    WOT_LOG(Error) << "wal append failed; durability degraded until "
                      "restart: "
                   << status.message();
    degraded_ = status;
  }
}

void StorageManager::LogAddUser(std::string_view name) {
  WalRecord record;
  record.type = WalRecordType::kAddUser;
  record.name = std::string(name);
  MutexLock lock(mu_);
  AppendMutation(record);
}

void StorageManager::LogAddCategory(std::string_view name) {
  WalRecord record;
  record.type = WalRecordType::kAddCategory;
  record.name = std::string(name);
  MutexLock lock(mu_);
  AppendMutation(record);
}

void StorageManager::LogAddObject(uint32_t category,
                                  std::string_view name) {
  WalRecord record;
  record.type = WalRecordType::kAddObject;
  record.a = category;
  record.name = std::string(name);
  MutexLock lock(mu_);
  AppendMutation(record);
}

void StorageManager::LogAddReview(uint32_t writer, uint32_t object) {
  WalRecord record;
  record.type = WalRecordType::kAddReview;
  record.a = writer;
  record.b = object;
  MutexLock lock(mu_);
  AppendMutation(record);
}

void StorageManager::LogAddRating(uint32_t rater, uint32_t review,
                                  double value) {
  WalRecord record;
  record.type = WalRecordType::kAddRating;
  record.a = rater;
  record.b = review;
  record.value = value;
  MutexLock lock(mu_);
  AppendMutation(record);
}

Status StorageManager::LogCommit(
    uint64_t version, bool published,
    const std::shared_ptr<const TrustSnapshot>& snapshot,
    const Dataset& staged) {
  MutexLock lock(mu_);
  if (!degraded_.ok()) return degraded_;
  commit_batch_records_->Record(records_since_commit_);
  records_since_commit_ = 0;
  WalRecord record;
  record.type = WalRecordType::kCommit;
  record.version = version;
  telemetry::Timer append_timer;
  Status status = wal_->Append(record);
  append_timer.RecordInto(wal_append_ns_);
  if (status.ok()) {
    telemetry::Timer sync_timer;
    status = wal_->Sync();
    sync_timer.RecordInto(wal_fsync_ns_);
  }
  if (!status.ok()) {
    WOT_LOG(Error) << "wal commit sync failed; durability degraded "
                      "until restart: "
                   << status.message();
    degraded_ = status;
    return status;
  }
  if (published && version > segment_epoch_) {
    WOT_TIMED(rotation_ns_);
    RotateLocked(version, snapshot, staged);
  }
  return Status::OK();
}

void StorageManager::RotateLocked(
    uint64_t version, const std::shared_ptr<const TrustSnapshot>& snapshot,
    const Dataset& staged) {
  // New WAL first: if the segment write fails afterwards, recovery
  // replays wal-<old> (which ends in this commit) and then wal-<version>
  // — no record is ever orphaned behind a newer segment.
  Result<std::unique_ptr<WalWriter>> next_wal =
      WalWriter::Open(WalPath(dir_, version), options_.fsync,
                      /*initial_records=*/0);
  if (!next_wal.ok()) {
    WOT_LOG(Error) << "cannot rotate wal for version " << version
                   << " (continuing on " << wal_->path()
                   << "): " << next_wal.status().message();
    return;
  }
  wal_ = std::move(next_wal).ValueOrDie();

  if (rotation_thread_.joinable()) {
    // Hand the segment write to the rotation thread. The snapshot is
    // shared (cheap); the staged dataset must be copied — it is only
    // valid for the duration of the LogCommit call.
    auto job = std::make_unique<RotationJob>();
    job->version = version;
    job->snapshot = snapshot;
    job->staged = staged;
    MutexLock lock(rotation_mu_);
    pending_rotation_ = std::move(job);  // coalesce: newest version wins
    rotation_cv_.NotifyAll();
    return;
  }

  telemetry::Timer timer;
  Result<uint64_t> bytes = WriteSegmentAndRetire(version, *snapshot, staged);
  timer.RecordInto(segment_write_ns_);
  if (!bytes.ok()) {
    WOT_LOG(Error) << "segment write failed for version " << version
                   << " (wal chain still covers it): "
                   << bytes.status().message();
    return;
  }
  segment_epoch_ = version;
  segment_bytes_ = bytes.ValueOrDie();
  rotations_->Increment();
  rotation_bytes_->Increment(static_cast<int64_t>(segment_bytes_));
}

Result<uint64_t> StorageManager::WriteSegmentAndRetire(
    uint64_t version, const TrustSnapshot& snapshot, const Dataset& staged) {
  const std::string segment_path = SegmentPath(dir_, version);
  WOT_RETURN_IF_ERROR(WriteSegment(segment_path, snapshot, staged));
  WOT_ASSIGN_OR_RETURN(uint64_t bytes, FileSizeOf(segment_path));

  // Retention: keep the newest keep_segments segments, drop older ones
  // and every WAL below the oldest keeper (their records are folded into
  // a kept segment). Deletion failures only cost disk, not correctness.
  Result<StorageFileSet> files = ListStorageFiles(dir_);
  if (!files.ok()) {
    WOT_LOG(Warning) << "retention scan failed: "
                     << files.status().message();
    return bytes;
  }
  const size_t keep = std::max<size_t>(options_.keep_segments, 1);
  const StorageFileSet& set = files.ValueOrDie();
  if (set.segments.size() <= keep) return bytes;
  const uint64_t oldest_kept =
      set.segments[set.segments.size() - keep].number;
  for (const StorageFile& segment : set.segments) {
    if (segment.number < oldest_kept &&
        std::remove(segment.path.c_str()) != 0) {
      WOT_LOG(Warning) << "cannot retire " << segment.path << ": "
                       << std::strerror(errno);
    }
  }
  for (const StorageFile& wal : set.wals) {
    if (wal.number < oldest_kept &&
        std::remove(wal.path.c_str()) != 0) {
      WOT_LOG(Warning) << "cannot retire " << wal.path << ": "
                       << std::strerror(errno);
    }
  }
  return bytes;
}

void StorageManager::FinishRotation(uint64_t version, uint64_t bytes) {
  MutexLock lock(mu_);
  if (version > segment_epoch_) {
    segment_epoch_ = version;
    segment_bytes_ = bytes;
  }
  rotations_->Increment();
  rotation_bytes_->Increment(static_cast<int64_t>(bytes));
}

void StorageManager::RotationLoop() {
  for (;;) {
    std::unique_ptr<RotationJob> job;
    {
      MutexLock lock(rotation_mu_);
      while (pending_rotation_ == nullptr && !rotation_stop_) {
        rotation_cv_.Wait(rotation_mu_);
      }
      if (pending_rotation_ == nullptr) break;  // stopping, queue drained
      job = std::move(pending_rotation_);
      rotation_in_flight_ = true;
    }
    telemetry::Timer timer;
    Result<uint64_t> bytes =
        WriteSegmentAndRetire(job->version, *job->snapshot, job->staged);
    timer.RecordInto(segment_write_ns_);
    if (bytes.ok()) {
      FinishRotation(job->version, bytes.ValueOrDie());
    } else {
      WOT_LOG(Error) << "background segment write failed for version "
                     << job->version << " (wal chain still covers it): "
                     << bytes.status().message();
    }
    MutexLock lock(rotation_mu_);
    rotation_in_flight_ = false;
    rotation_cv_.NotifyAll();
  }
}

void StorageManager::WaitForIdle() {
  MutexLock lock(rotation_mu_);
  while (pending_rotation_ != nullptr || rotation_in_flight_) {
    rotation_cv_.Wait(rotation_mu_);
  }
}

DurabilityStats StorageManager::durability_stats() const {
  MutexLock lock(mu_);
  DurabilityStats stats;
  stats.wal_records = static_cast<int64_t>(wal_->records());
  stats.wal_bytes = static_cast<int64_t>(wal_->bytes());
  stats.segment_epoch = static_cast<int64_t>(segment_epoch_);
  stats.segment_bytes = static_cast<int64_t>(segment_bytes_);
  stats.recovered_replayed_records =
      static_cast<int64_t>(replayed_records_);
  return stats;
}

Result<StorageManager::BootResult> StorageManager::Boot(
    const std::string& dir,
    const std::function<Result<Dataset>()>& seed_provider,
    const TrustServiceOptions& service_options,
    const StorageOptions& storage_options) {
  WOT_RETURN_IF_ERROR(EnsureDir(dir));
  WOT_ASSIGN_OR_RETURN(StorageFileSet files, ListStorageFiles(dir));

  if (files.segments.empty()) {
    if (!files.wals.empty()) {
      return Status::Corruption(
          "data directory '" + dir +
          "' has wal files but no snapshot segment; refusing to guess "
          "at history");
    }
    // Fresh boot: seed, publish version 1, persist it.
    WOT_ASSIGN_OR_RETURN(Dataset seed, seed_provider());
    WOT_ASSIGN_OR_RETURN(std::unique_ptr<TrustService> service,
                         TrustService::Create(std::move(seed), service_options));
    std::shared_ptr<const TrustSnapshot> snapshot = service->Snapshot();
    const std::string segment_path =
        SegmentPath(dir, snapshot->version());
    WOT_RETURN_IF_ERROR(
        WriteSegment(segment_path, *snapshot, service->staged_dataset()));
    WOT_ASSIGN_OR_RETURN(uint64_t segment_bytes,
                         FileSizeOf(segment_path));
    WOT_ASSIGN_OR_RETURN(
        std::unique_ptr<WalWriter> wal,
        WalWriter::Open(WalPath(dir, snapshot->version()),
                        storage_options.fsync, /*initial_records=*/0));
    BootResult result;
    result.manager.reset(new StorageManager(
        dir, storage_options, std::move(wal), snapshot->version(),
        segment_bytes, /*replayed_records=*/0));
    result.service = std::move(service);
    result.service->SetMutationLog(result.manager.get());
    result.recovered = false;
    return result;
  }

  // Recovery: newest valid segment wins; older ones are fallbacks for
  // a torn-at-power-loss filesystem (rename is atomic, so in practice
  // the newest is valid or absent — but CRCs make this robust anyway).
  uint64_t segment_version = 0;
  uint64_t segment_bytes = 0;
  std::unique_ptr<TrustService> service;
  for (size_t i = files.segments.size(); i-- > 0 && service == nullptr;) {
    const StorageFile& candidate = files.segments[i];
    Result<SegmentData> data = LoadSegment(candidate.path);
    if (!data.ok()) {
      WOT_LOG(Warning) << "skipping invalid segment " << candidate.path
                       << ": " << data.status().message();
      continue;
    }
    SegmentData segment = std::move(data).ValueOrDie();
    Result<std::unique_ptr<TrustService>> restored = TrustService::Restore(
        std::move(segment.dataset), std::move(segment.reputation),
        std::move(segment.affiliation), std::move(segment.postings),
        segment.snapshot_version, service_options);
    if (!restored.ok()) {
      WOT_LOG(Warning) << "segment " << candidate.path
                       << " did not restore: "
                       << restored.status().message();
      continue;
    }
    service = std::move(restored).ValueOrDie();
    segment_version = segment.snapshot_version;
    WOT_ASSIGN_OR_RETURN(segment_bytes, FileSizeOf(candidate.path));
  }
  if (service == nullptr) {
    return Status::Corruption("data directory '" + dir +
                              "' has no loadable snapshot segment");
  }

  // Replay WALs at or past the segment's epoch, oldest first. Only the
  // newest file may carry a torn tail (it is repaired in place); a tear
  // in an older file would orphan every later record, so it is fatal.
  uint64_t replayed = 0;
  uint64_t open_epoch = segment_version;
  uint64_t open_records = 0;
  bool opened = false;
  for (size_t i = 0; i < files.wals.size(); ++i) {
    const StorageFile& wal = files.wals[i];
    if (wal.number < segment_version) continue;
    const bool newest = i + 1 == files.wals.size();
    TrustService* raw = service.get();
    Result<WalScanStats> scanned = ScanWal(
        wal.path, /*repair=*/newest,
        [raw](const WalRecord& record) {
          return ApplyWalRecord(*raw, record);
        });
    if (!scanned.ok()) {
      return Status::Corruption("wal '" + wal.path + "' is corrupt: " +
                                scanned.status().message());
    }
    const WalScanStats& stats = scanned.ValueOrDie();
    if (!newest && stats.truncated_bytes > 0) {
      return Status::Corruption(
          "wal '" + wal.path + "' has a torn tail (" +
          std::to_string(stats.truncated_bytes) +
          " bytes) but newer wal files exist; the record chain is "
          "broken");
    }
    replayed += stats.records;
    open_epoch = wal.number;
    open_records = stats.records;
    opened = true;
  }
  if (replayed > 0) {
    WOT_LOG(Info) << "recovered " << dir << ": segment version "
                  << segment_version << " + " << replayed
                  << " replayed wal records (serving version "
                  << service->Snapshot()->version() << ")";
  }

  // Keep appending where the chain left off (create wal-<segment> when
  // the crash landed between segment write and wal rotation).
  WOT_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> wal,
      WalWriter::Open(WalPath(dir, open_epoch), storage_options.fsync,
                      opened ? open_records : 0));
  BootResult result;
  result.manager.reset(new StorageManager(
      dir, storage_options, std::move(wal), segment_version,
      segment_bytes, replayed));
  result.service = std::move(service);
  result.service->SetMutationLog(result.manager.get());
  result.replayed_records = replayed;
  result.recovered = true;
  return result;
}

}  // namespace storage
}  // namespace wot
