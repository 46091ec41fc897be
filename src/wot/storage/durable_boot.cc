#include "wot/storage/durable_boot.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "wot/io/byte_reader.h"
#include "wot/io/byte_writer.h"
#include "wot/io/crc32.h"
#include "wot/io/csv.h"
#include "wot/service/dataset_shard.h"
#include "wot/storage/fs_util.h"
#include "wot/util/logging.h"

namespace wot {
namespace storage {
namespace {

constexpr char kShardMetaMagic[8] = {'W', 'O', 'T', 'M',
                                     'E', 'T', 'A', '\n'};
constexpr char kEpochMetaMagic[8] = {'W', 'O', 'T', 'E',
                                     'P', 'O', 'C', '\n'};
constexpr uint32_t kMetaFormatVersion = 1;

std::string ShardMetaPath(const std::string& dir) { return dir + "/meta"; }
std::string RouterEpochPath(const std::string& dir) {
  return dir + "/router.meta";
}
std::string ShardDirOf(const std::string& dir, size_t shard) {
  return dir + "/shard-" + std::to_string(shard);
}

/// magic | u32 format | payload | u32 crc(everything before).
std::string EncodeMetaFile(const char (&magic)[8],
                           const std::function<void(ByteWriter&)>& payload) {
  ByteWriter w;
  w.PutRaw(std::string_view(magic, sizeof(magic)));
  w.PutU32(kMetaFormatVersion);
  payload(w);
  const uint32_t crc = Crc32(w.buffer().data(), w.size());
  w.PutU32(crc);
  return w.Take();
}

/// Verifies the envelope and hands back a reader positioned after the
/// format field, covering only the payload.
Result<ByteReader> OpenMetaFile(const std::string& path,
                                const std::string& contents,
                                const char (&magic)[8]) {
  if (contents.size() < sizeof(magic) + 8) {
    return Status::Corruption("meta file '" + path + "' is truncated");
  }
  if (std::memcmp(contents.data(), magic, sizeof(magic)) != 0) {
    return Status::Corruption("meta file '" + path + "' has a bad magic");
  }
  const size_t crc_offset = contents.size() - 4;
  ByteReader crc_reader(
      std::string_view(contents.data() + crc_offset, 4));
  const uint32_t stored_crc = crc_reader.GetU32();
  if (Crc32(contents.data(), crc_offset) != stored_crc) {
    return Status::Corruption("meta file '" + path +
                              "' failed its checksum");
  }
  ByteReader reader(std::string_view(contents.data() + sizeof(magic),
                                     crc_offset - sizeof(magic)));
  const uint32_t format = reader.GetU32();
  if (reader.failed() || format != kMetaFormatVersion) {
    return Status::Corruption("meta file '" + path +
                              "' has unsupported format " +
                              std::to_string(format));
  }
  return reader;
}

bool FileExists(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

Result<uint32_t> ReadShardMeta(const std::string& dir) {
  const std::string path = ShardMetaPath(dir);
  if (!FileExists(path)) {
    return Status::NotFound("no meta file at '" + path + "'");
  }
  WOT_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  WOT_ASSIGN_OR_RETURN(ByteReader reader,
                       OpenMetaFile(path, contents, kShardMetaMagic));
  const uint32_t num_shards = reader.GetU32();
  if (reader.failed() || !reader.AtEnd() || num_shards == 0) {
    return Status::Corruption("meta file '" + path +
                              "' holds an invalid shard count");
  }
  return num_shards;
}

Result<uint64_t> ReadRouterEpoch(const std::string& dir) {
  const std::string path = RouterEpochPath(dir);
  if (!FileExists(path)) {
    return Status::NotFound("no router epoch file at '" + path + "'");
  }
  WOT_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  WOT_ASSIGN_OR_RETURN(ByteReader reader,
                       OpenMetaFile(path, contents, kEpochMetaMagic));
  const uint64_t epoch = reader.GetU64();
  if (reader.failed() || !reader.AtEnd() || epoch == 0) {
    return Status::Corruption("router epoch file '" + path +
                              "' holds an invalid epoch");
  }
  return epoch;
}

Result<DurableService> BootDurable(
    const std::string& dir,
    const std::function<Result<Dataset>()>& seed_provider,
    const DurableBootOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  WOT_RETURN_IF_ERROR(EnsureDir(dir));

  // Pin (or verify) the shard count before touching any shard state.
  Result<uint32_t> pinned = ReadShardMeta(dir);
  if (pinned.ok()) {
    if (pinned.ValueOrDie() != options.num_shards) {
      return Status::FailedPrecondition(
          "data directory '" + dir + "' was created with " +
          std::to_string(pinned.ValueOrDie()) +
          " shard(s) but the server asked for " +
          std::to_string(options.num_shards) +
          "; resharding needs a migration, not a flag change");
    }
  } else if (pinned.status().code() == StatusCode::kNotFound) {
    const uint32_t shards = static_cast<uint32_t>(options.num_shards);
    WOT_RETURN_IF_ERROR(AtomicWriteFile(
        ShardMetaPath(dir),
        EncodeMetaFile(kShardMetaMagic, [shards](ByteWriter& w) {
          w.PutU32(shards);
        })));
  } else {
    return pinned.status();
  }

  // Fresh shards seed lazily: slice once, only if someone needs it.
  std::optional<std::vector<Dataset>> slices;
  const size_t num_shards = options.num_shards;
  auto shard_seed = [&](size_t shard) {
    return [&, shard]() -> Result<Dataset> {
      if (!slices.has_value()) {
        WOT_ASSIGN_OR_RETURN(Dataset seed, seed_provider());
        WOT_ASSIGN_OR_RETURN(std::vector<Dataset> sliced,
                             SliceDatasetByUser(std::move(seed), num_shards));
        slices = std::move(sliced);
      }
      return std::move((*slices)[shard]);
    };
  };

  DurableService result;
  if (num_shards == 1) {
    WOT_ASSIGN_OR_RETURN(
        StorageManager::BootResult boot,
        StorageManager::Boot(dir, shard_seed(0), options.service,
                             options.storage));
    result.managers.push_back(std::move(boot.manager));
    result.service = std::move(boot.service);
    result.frontend_impl =
        std::make_unique<api::ServiceFrontend>(result.service.get());
    result.frontend = result.frontend_impl.get();
    // Surface WAL/rotation timings in the serving frontend's scrapes.
    result.frontend->AddMetricsSource(
        result.managers.back()->metrics_registry());
    result.replayed_records = boot.replayed_records;
    result.recovered = boot.recovered;
    return result;
  }

  std::vector<std::unique_ptr<TrustService>> services;
  services.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    WOT_ASSIGN_OR_RETURN(
        StorageManager::BootResult boot,
        StorageManager::Boot(ShardDirOf(dir, s), shard_seed(s),
                             options.service, options.storage));
    result.managers.push_back(std::move(boot.manager));
    services.push_back(std::move(boot.service));
    result.replayed_records += boot.replayed_records;
    result.recovered = result.recovered || boot.recovered;
  }
  WOT_ASSIGN_OR_RETURN(result.router,
                       api::ShardRouter::CreateFromServices(
                           std::move(services)));
  // One scrape of the router covers every shard's durable store.
  for (const std::unique_ptr<StorageManager>& manager : result.managers) {
    result.router->AddMetricsSource(manager->metrics_registry());
  }

  // Router epoch: restore the persisted value, or persist epoch 1 on a
  // fresh directory. A missing file on a RECOVERED directory means the
  // pre-crash server never published a cross-shard commit — epoch 1.
  uint64_t epoch = 1;
  Result<uint64_t> persisted = ReadRouterEpoch(dir);
  if (persisted.ok()) {
    epoch = persisted.ValueOrDie();
  } else if (persisted.status().code() != StatusCode::kNotFound) {
    return persisted.status();
  }
  result.router->RestoreEpoch(epoch);
  const std::string epoch_path = RouterEpochPath(dir);
  result.router->SetEpochCallback([epoch_path](uint64_t new_epoch) {
    Status written = AtomicWriteFile(
        epoch_path,
        EncodeMetaFile(kEpochMetaMagic, [new_epoch](ByteWriter& w) {
          w.PutU64(new_epoch);
        }));
    if (!written.ok()) {
      WOT_LOG(Error) << "cannot persist router epoch " << new_epoch
                     << ": " << written.message();
    }
  });
  if (!persisted.ok()) {
    WOT_RETURN_IF_ERROR(AtomicWriteFile(
        epoch_path,
        EncodeMetaFile(kEpochMetaMagic, [epoch](ByteWriter& w) {
          w.PutU64(epoch);
        })));
  }
  result.frontend = result.router.get();
  return result;
}

}  // namespace storage
}  // namespace wot
