#include "wot/storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "wot/community/dataset_builder.h"
#include "wot/community/entities.h"
#include "wot/io/byte_reader.h"
#include "wot/io/byte_writer.h"
#include "wot/io/crc32.h"
#include "wot/storage/fs_util.h"

namespace wot {
namespace storage {
namespace {

constexpr char kMagic[8] = {'W', 'O', 'T', 'S', 'E', 'G', '1', '\n'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kHeaderBytes = 16;  // magic + bulk_offset
constexpr size_t kFooterBytes = 4;   // trailing CRC32

// Raw f64 blocks are little-endian in the file: a straight copy on
// little-endian hosts, a per-element byte shuffle otherwise.
void CopyDoublesFromLE(const char* src, double* dst, size_t count) {
  // An empty column's data() may be null, which memcpy must not see even
  // with a zero count.
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, count * sizeof(double));
  } else {
    for (size_t i = 0; i < count; ++i) {
      dst[i] = std::bit_cast<double>(LoadLE64(src + i * 8));
    }
  }
}

// Read-only mapping of a whole file (RAII).
class MappedFile {
 public:
  static Result<std::unique_ptr<MappedFile>> Map(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError("cannot open segment '" + path +
                             "': " + std::strerror(errno));
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return Status::IOError("cannot stat segment '" + path +
                             "': " + std::strerror(err));
    }
    const size_t size = static_cast<size_t>(st.st_size);
    void* base = nullptr;
    if (size > 0) {
      base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base == MAP_FAILED) {
        int err = errno;
        ::close(fd);
        return Status::IOError("cannot mmap segment '" + path +
                               "': " + std::strerror(err));
      }
    }
    ::close(fd);
    return std::unique_ptr<MappedFile>(new MappedFile(base, size));
  }

  ~MappedFile() {
    if (base_ != nullptr) ::munmap(base_, size_);
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view view() const {
    return {static_cast<const char*>(base_), size_};
  }

 private:
  MappedFile(void* base, size_t size) : base_(base), size_(size) {}
  void* base_;
  size_t size_;
};

Status CorruptSegment(const std::string& path, const std::string& what) {
  return Status::Corruption("segment '" + path + "': " + what);
}

// Verifies magic and the bulk_offset bounds — the structural facts the
// decoder needs before it can even start. Deliberately does NOT check
// the CRC; see VerifyEnvelope / LoadSegment for the two call patterns.
Status VerifyMagicAndOffset(const std::string& path, std::string_view file,
                            uint64_t* bulk_offset) {
  if (file.size() < kHeaderBytes + kFooterBytes) {
    return CorruptSegment(path, "file too small");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return CorruptSegment(path, "bad magic");
  }
  const size_t crc_offset = file.size() - kFooterBytes;
  *bulk_offset = LoadLE64(file.data() + 8);
  if (*bulk_offset < kHeaderBytes || *bulk_offset > crc_offset ||
      *bulk_offset % 8 != 0) {
    return CorruptSegment(path, "bulk offset out of bounds");
  }
  return Status::OK();
}

// Verifies magic, bulk_offset bounds, and the footer CRC. On success the
// whole file content is CRC-clean.
Status VerifyEnvelope(const std::string& path, std::string_view file,
                      uint64_t* bulk_offset) {
  WOT_RETURN_IF_ERROR(VerifyMagicAndOffset(path, file, bulk_offset));
  const size_t crc_offset = file.size() - kFooterBytes;
  if (Crc32(file.data(), crc_offset) != LoadLE32(file.data() + crc_offset)) {
    return CorruptSegment(path, "CRC mismatch");
  }
  return Status::OK();
}

// Decodes the fixed leading fields of the structured section.
struct SegmentHeader {
  uint64_t snapshot_version = 0;
  uint64_t num_categories = 0;
  uint64_t num_users = 0;
  uint64_t num_objects = 0;
  uint64_t num_reviews = 0;
  uint64_t num_ratings = 0;
  uint64_t num_trust = 0;
};

Status DecodeHeader(const std::string& path, ByteReader* reader,
                    size_t file_bytes, SegmentHeader* header) {
  const uint32_t format = reader->GetU32();
  if (reader->failed() || format != kFormatVersion) {
    return CorruptSegment(path, "unsupported format version");
  }
  header->snapshot_version = reader->GetU64();
  header->num_categories = reader->GetU64();
  header->num_users = reader->GetU64();
  header->num_objects = reader->GetU64();
  header->num_reviews = reader->GetU64();
  header->num_ratings = reader->GetU64();
  header->num_trust = reader->GetU64();
  if (reader->failed() || header->snapshot_version == 0) {
    return CorruptSegment(path, "truncated or invalid header");
  }
  // No entity column can hold more entries than the file has bytes —
  // this bounds every decode loop and reserve() by the file size even
  // for a crafted (CRC-consistent) file.
  for (uint64_t count :
       {header->num_categories, header->num_users, header->num_objects,
        header->num_reviews, header->num_ratings, header->num_trust}) {
    if (count > file_bytes) {
      return CorruptSegment(path, "entity count exceeds file size");
    }
  }
  return Status::OK();
}

// The streaming sink folds its staging buffer into the CRC and the file
// once the buffer holds this much, so a segment is never held whole in
// memory.
constexpr size_t kFlushBytes = size_t{1} << 20;

// Counts the bytes EncodeStructured emits without producing them. The
// header carries bulk_offset ahead of the structured section, so the
// writer runs the encoder into this sink first to learn it.
class CountingSink {
 public:
  CountingSink& PutU8(uint8_t) { return Add(1); }
  CountingSink& PutU32(uint32_t) { return Add(4); }
  CountingSink& PutU64(uint64_t) { return Add(8); }
  CountingSink& PutDouble(double) { return Add(8); }
  CountingSink& PutString(std::string_view s) { return Add(4 + s.size()); }
  void EndRecord() {}

  uint64_t bytes() const { return bytes_; }

 private:
  CountingSink& Add(uint64_t n) {
    bytes_ += n;
    return *this;
  }
  uint64_t bytes_ = 0;
};

// Streams a file to \p fd: the inherited Put* calls encode into a
// staging buffer, which is folded into a running CRC and written out once
// it is full. Write errors are sticky: every later write is skipped and
// Finish() returns the first error.
class StreamSink : public ByteWriter {
 public:
  explicit StreamSink(int fd) : fd_(fd) {}

  // Called between records: writes the buffer out once it is full.
  void EndRecord() {
    if (size() >= kFlushBytes) Flush();
  }

  // Writes \p count doubles little-endian. On little-endian hosts they go
  // to the file straight from \p src, with no copy through the buffer.
  void PutDoubles(const double* src, size_t count) {
    if constexpr (std::endian::native == std::endian::little) {
      Flush();
      Write({reinterpret_cast<const char*>(src), count * sizeof(double)});
    } else {
      for (size_t i = 0; i < count; ++i) {
        PutDouble(src[i]);
        EndRecord();
      }
    }
  }

  // Bytes emitted so far, buffered ones included.
  uint64_t bytes() const { return written_ + size(); }

  // Writes out the buffer, then the CRC of every byte before it.
  Status Finish() {
    Flush();
    PutU32(crc_);
    if (status_.ok()) status_ = WriteAllFd(fd_, buffer());
    return status_;
  }

 private:
  void Flush() {
    Write(buffer());
    Clear();
  }

  void Write(std::string_view bytes) {
    if (!status_.ok() || bytes.empty()) return;
    crc_ = Crc32Update(crc_, bytes.data(), bytes.size());
    written_ += bytes.size();
    status_ = WriteAllFd(fd_, bytes);
  }

  const int fd_;
  uint32_t crc_ = 0;
  uint64_t written_ = 0;
  Status status_;
};

// The structured section (see segment.h), into a CountingSink or a
// StreamSink. The caller has checked the snapshot's shape.
template <typename Sink>
void EncodeStructured(const TrustSnapshot& snapshot, const Dataset& staged,
                      Sink& out) {
  out.PutU32(kFormatVersion);
  out.PutU64(snapshot.version());
  out.PutU64(staged.num_categories());
  out.PutU64(staged.num_users());
  out.PutU64(staged.num_objects());
  out.PutU64(staged.num_reviews());
  out.PutU64(staged.num_ratings());
  out.PutU64(staged.num_trust_statements());
  for (const Category& category : staged.categories()) {
    out.PutString(category.name);
    out.EndRecord();
  }
  for (const User& user : staged.users()) {
    out.PutString(user.name);
    out.EndRecord();
  }
  for (const Object& object : staged.objects()) {
    out.PutU32(object.category.value()).PutString(object.name);
    out.EndRecord();
  }
  for (const Review& review : staged.reviews()) {
    out.PutU32(review.writer.value()).PutU32(review.object.value());
    out.EndRecord();
  }
  for (const ReviewRating& rating : staged.ratings()) {
    out.PutU32(rating.rater.value())
        .PutU32(rating.review.value())
        .PutDouble(rating.value);
    out.EndRecord();
  }
  for (const TrustStatement& statement : staged.trust_statements()) {
    out.PutU32(statement.source.value()).PutU32(statement.target.value());
    out.EndRecord();
  }
  for (const ConvergenceInfo& info : snapshot.reputation().convergence) {
    out.PutU64(static_cast<uint64_t>(info.iterations))
        .PutDouble(info.final_delta)
        .PutU8(info.converged ? 1 : 0);
  }
  const std::vector<ExpertisePostingPtr>& postings =
      snapshot.deriver().postings();
  out.PutU8(postings.empty() ? 0 : 1);
  for (const ExpertisePostingPtr& posting : postings) {
    out.PutU64(posting->size());
    for (const ScoredUser& entry : *posting) {
      out.PutU32(entry.user).PutDouble(entry.score);
      out.EndRecord();
    }
  }
}

}  // namespace

Status WriteSegment(const std::string& path, const TrustSnapshot& snapshot,
                    const Dataset& staged) {
  const size_t num_users = staged.num_users();
  const size_t num_categories = staged.num_categories();
  if (snapshot.num_users() != num_users ||
      snapshot.num_categories() != num_categories ||
      snapshot.num_reviews() != staged.num_reviews() ||
      snapshot.num_ratings() != staged.num_ratings()) {
    return Status::InvalidArgument(
        "segment write requires the snapshot to be derived from the "
        "staged dataset (commit-time state)");
  }
  const ReputationResult& reputation = snapshot.reputation();
  if (reputation.expertise.rows() != num_users ||
      reputation.expertise.cols() != num_categories ||
      reputation.review_quality.size() != staged.num_reviews() ||
      reputation.convergence.size() != num_categories) {
    return Status::InvalidArgument("snapshot reputation shape mismatch");
  }

  const std::vector<ExpertisePostingPtr>& postings =
      snapshot.deriver().postings();
  if (!postings.empty() && postings.size() != num_categories) {
    return Status::InvalidArgument("snapshot postings shape mismatch");
  }

  CountingSink counted;
  EncodeStructured(snapshot, staged, counted);
  const uint64_t structured_end = kHeaderBytes + counted.bytes();
  const uint64_t bulk_offset = (structured_end + 7) / 8 * 8;
  const size_t matrix_doubles = num_users * num_categories;

  return AtomicWriteFileWith(path, [&](int fd) -> Status {
    StreamSink out(fd);
    out.PutRaw({kMagic, sizeof(kMagic)}).PutU64(bulk_offset);
    EncodeStructured(snapshot, staged, out);
    if (out.bytes() != structured_end) {
      return Status::Internal(
          "segment structured section is " + std::to_string(out.bytes()) +
          " bytes, counted " + std::to_string(structured_end));
    }
    while (out.bytes() < bulk_offset) out.PutU8(0);
    out.PutDoubles(reputation.expertise.data().data(), matrix_doubles);
    out.PutDoubles(reputation.rater_reputation.data().data(),
                   matrix_doubles);
    out.PutDoubles(snapshot.affiliation().data().data(), matrix_doubles);
    out.PutDoubles(reputation.review_quality.data(),
                   reputation.review_quality.size());
    return out.Finish();
  });
}

// Decodes everything past the envelope. Total on hostile input: every
// count and reference is bounds-checked against the file (and the
// corruption fuzz suite drives it with un-CRC-checked bytes), so it is
// safe to run this before — or concurrently with — the CRC pass.
Result<SegmentData> DecodeSegmentBody(const std::string& path,
                                      std::string_view file,
                                      uint64_t bulk_offset,
                                      size_t crc_offset) {
  ByteReader reader(file.substr(kHeaderBytes, bulk_offset - kHeaderBytes));
  SegmentHeader header;
  WOT_RETURN_IF_ERROR(DecodeHeader(path, &reader, file.size(), &header));

  // The bulk section's size is fully determined by the header counts;
  // anything else means the file is inconsistent.
  const uint64_t matrix_doubles = header.num_users * header.num_categories;
  const uint64_t bulk_bytes =
      (3 * matrix_doubles + header.num_reviews) * sizeof(double);
  if (bulk_offset + bulk_bytes != crc_offset) {
    return CorruptSegment(path, "bulk section size mismatch");
  }

  std::vector<Category> categories;
  categories.reserve(header.num_categories);
  for (uint64_t i = 0; i < header.num_categories && !reader.failed(); ++i) {
    categories.push_back(Category{CategoryId(), reader.GetString()});
  }
  std::vector<User> users;
  users.reserve(header.num_users);
  for (uint64_t i = 0; i < header.num_users && !reader.failed(); ++i) {
    users.push_back(User{UserId(), reader.GetString()});
  }
  std::vector<Object> objects;
  objects.reserve(header.num_objects);
  for (uint64_t i = 0; i < header.num_objects && !reader.failed(); ++i) {
    const uint32_t category = reader.GetU32();
    objects.push_back(
        Object{ObjectId(), CategoryId(category), reader.GetString()});
  }
  // The remaining entity columns are fixed-width record arrays; one
  // GetRaw bounds check per column replaces three sticky checks per
  // record, which is what keeps instant boot instant at 10^5..10^6
  // ratings (GetRaw returns nullptr on underflow and the loops are
  // skipped — the failed() check below reports it).
  std::vector<Review> reviews(header.num_reviews);
  if (const char* raw = reader.GetRaw(header.num_reviews * 8)) {
    for (uint64_t i = 0; i < header.num_reviews; ++i, raw += 8) {
      reviews[i] = Review{ReviewId(), UserId(LoadLE32(raw)),
                          ObjectId(LoadLE32(raw + 4)), CategoryId()};
    }
  }
  std::vector<ReviewRating> ratings(header.num_ratings);
  if (const char* raw = reader.GetRaw(header.num_ratings * 16)) {
    for (uint64_t i = 0; i < header.num_ratings; ++i, raw += 16) {
      ratings[i] =
          ReviewRating{UserId(LoadLE32(raw)), ReviewId(LoadLE32(raw + 4)),
                       std::bit_cast<double>(LoadLE64(raw + 8))};
    }
  }
  std::vector<TrustStatement> trust(header.num_trust);
  if (const char* raw = reader.GetRaw(header.num_trust * 8)) {
    for (uint64_t i = 0; i < header.num_trust; ++i, raw += 8) {
      trust[i] =
          TrustStatement{UserId(LoadLE32(raw)), UserId(LoadLE32(raw + 4))};
    }
  }

  SegmentData data;
  data.snapshot_version = header.snapshot_version;
  data.reputation.convergence.reserve(header.num_categories);
  for (uint64_t i = 0; i < header.num_categories && !reader.failed(); ++i) {
    ConvergenceInfo info;
    info.iterations = static_cast<size_t>(reader.GetU64());
    info.final_delta = reader.GetDouble();
    info.converged = reader.GetU8() != 0;
    data.reputation.convergence.push_back(info);
  }
  const uint8_t has_postings = reader.GetU8();
  if (has_postings > 1) {
    return CorruptSegment(path, "invalid postings flag");
  }
  if (has_postings == 1) {
    data.postings.reserve(header.num_categories);
    for (uint64_t c = 0; c < header.num_categories && !reader.failed();
         ++c) {
      const uint64_t count = reader.GetU64();
      if (count > file.size()) {
        return CorruptSegment(path, "posting count exceeds file size");
      }
      auto posting = std::make_shared<ExpertisePosting>(count);
      if (const char* raw = reader.GetRaw(count * 12)) {
        for (uint64_t i = 0; i < count; ++i, raw += 12) {
          (*posting)[i] =
              ScoredUser{LoadLE32(raw), std::bit_cast<double>(LoadLE64(raw + 4))};
        }
      }
      data.postings.push_back(std::move(posting));
    }
  }
  if (reader.failed()) {
    return CorruptSegment(path, "truncated structured section");
  }
  // Only alignment padding may remain before the bulk section.
  if (reader.remaining() >= 8) {
    return CorruptSegment(path, "structured section has trailing bytes");
  }

  const char* bulk = file.data() + bulk_offset;
  data.reputation.expertise =
      DenseMatrix(header.num_users, header.num_categories, 0.0);
  data.reputation.rater_reputation =
      DenseMatrix(header.num_users, header.num_categories, 0.0);
  data.affiliation =
      DenseMatrix(header.num_users, header.num_categories, 0.0);
  const size_t row_bytes = header.num_categories * sizeof(double);
  for (uint64_t u = 0; u < header.num_users; ++u) {
    CopyDoublesFromLE(bulk + u * row_bytes,
                      data.reputation.expertise.Row(u).data(),
                      header.num_categories);
    CopyDoublesFromLE(bulk + (matrix_doubles + u * header.num_categories) *
                                 sizeof(double),
                      data.reputation.rater_reputation.Row(u).data(),
                      header.num_categories);
    CopyDoublesFromLE(bulk + (2 * matrix_doubles +
                              u * header.num_categories) *
                                 sizeof(double),
                      data.affiliation.Row(u).data(),
                      header.num_categories);
  }
  data.reputation.review_quality.resize(header.num_reviews, 0.0);
  CopyDoublesFromLE(bulk + 3 * matrix_doubles * sizeof(double),
                    data.reputation.review_quality.data(),
                    header.num_reviews);

  Result<Dataset> dataset = DatasetBuilder::FromValidatedColumns(
      std::move(categories), std::move(users), std::move(objects),
      std::move(reviews), std::move(ratings), std::move(trust));
  if (!dataset.ok()) {
    return CorruptSegment(path, dataset.status().message());
  }
  data.dataset = std::move(dataset).ValueOrDie();
  return data;
}

Result<SegmentData> LoadSegment(const std::string& path) {
  WOT_ASSIGN_OR_RETURN(std::unique_ptr<MappedFile> mapped,
                       MappedFile::Map(path));
  std::string_view file = mapped->view();
  uint64_t bulk_offset = 0;
  WOT_RETURN_IF_ERROR(VerifyMagicAndOffset(path, file, &bulk_offset));
  const size_t crc_offset = file.size() - kFooterBytes;

  // The CRC pass and the decode pass each walk the whole multi-megabyte
  // mapping; running them concurrently nearly halves instant-boot
  // latency. Soundness: DecodeSegmentBody is total on unverified bytes
  // (see above), and its result is surfaced only after the CRC verdict —
  // a mismatch wins over whatever the decoder produced or reported.
  uint32_t actual_crc = 0;
  std::thread crc_pass([file, crc_offset, &actual_crc] {
    actual_crc = Crc32(file.data(), crc_offset);
  });
  Result<SegmentData> decoded =
      DecodeSegmentBody(path, file, bulk_offset, crc_offset);
  crc_pass.join();
  if (actual_crc != LoadLE32(file.data() + crc_offset)) {
    return CorruptSegment(path, "CRC mismatch");
  }
  return decoded;
}

Result<SegmentInfo> ReadSegmentInfo(const std::string& path) {
  WOT_ASSIGN_OR_RETURN(std::unique_ptr<MappedFile> mapped,
                       MappedFile::Map(path));
  std::string_view file = mapped->view();
  uint64_t bulk_offset = 0;
  WOT_RETURN_IF_ERROR(VerifyEnvelope(path, file, &bulk_offset));
  ByteReader reader(file.substr(kHeaderBytes, bulk_offset - kHeaderBytes));
  SegmentHeader header;
  WOT_RETURN_IF_ERROR(DecodeHeader(path, &reader, file.size(), &header));
  SegmentInfo info;
  info.snapshot_version = header.snapshot_version;
  info.file_bytes = file.size();
  info.num_categories = header.num_categories;
  info.num_users = header.num_users;
  info.num_objects = header.num_objects;
  info.num_reviews = header.num_reviews;
  info.num_ratings = header.num_ratings;
  return info;
}

}  // namespace storage
}  // namespace wot
