#include "wot/io/binary_format.h"

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "wot/community/dataset_builder.h"
#include "wot/io/byte_reader.h"
#include "wot/io/byte_writer.h"
#include "wot/io/crc32.h"
#include "wot/io/csv.h"

namespace wot {

namespace {

constexpr char kMagic[4] = {'W', 'O', 'T', 'B'};

// Fixed record widths of the reviews, ratings and trust sections.
constexpr size_t kReviewBytes = 8;
constexpr size_t kRatingBytes = 16;
constexpr size_t kTrustBytes = 8;

// Reads a section count. Every record takes at least \p min_record_bytes,
// so a count the rest of the payload cannot hold is rejected here, before
// anything is allocated for it.
Status GetCount(ByteReader* body, size_t min_record_bytes, uint64_t* count) {
  *count = body->GetU64();
  if (body->failed() || *count > body->remaining() / min_record_bytes) {
    return Status::Corruption("section count exceeds payload");
  }
  return Status::OK();
}

}  // namespace

std::string SerializeDataset(const Dataset& dataset) {
  ByteWriter body;
  body.PutU64(dataset.num_categories());
  for (const auto& category : dataset.categories()) {
    body.PutString(category.name);
  }
  body.PutU64(dataset.num_users());
  for (const auto& user : dataset.users()) {
    body.PutString(user.name);
  }
  body.PutU64(dataset.num_objects());
  for (const auto& object : dataset.objects()) {
    body.PutU32(object.category.value()).PutString(object.name);
  }
  body.PutU64(dataset.num_reviews());
  for (const auto& review : dataset.reviews()) {
    body.PutU32(review.writer.value()).PutU32(review.object.value());
  }
  body.PutU64(dataset.num_ratings());
  for (const auto& rating : dataset.ratings()) {
    body.PutU32(rating.rater.value())
        .PutU32(rating.review.value())
        .PutDouble(rating.value);
  }
  body.PutU64(dataset.num_trust_statements());
  for (const auto& trust : dataset.trust_statements()) {
    body.PutU32(trust.source.value()).PutU32(trust.target.value());
  }

  ByteWriter out;
  out.PutRaw(std::string_view(kMagic, sizeof(kMagic)));
  out.PutU32(kBinaryFormatVersion);
  const std::string& payload = body.buffer();
  out.PutU64(payload.size());
  out.PutRaw(payload);
  out.PutU32(Crc32(payload.data(), payload.size()));
  return out.Take();
}

Result<Dataset> DeserializeDataset(std::string_view buffer) {
  ByteReader reader(buffer);
  const char* magic = reader.GetRaw(sizeof(kMagic));
  if (magic == nullptr) {
    return Status::Corruption("unexpected end of buffer");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic; not a WOTB file");
  }
  const uint32_t version = reader.GetU32();
  if (reader.failed()) {
    return Status::Corruption("unexpected end of buffer");
  }
  if (version != kBinaryFormatVersion) {
    return Status::Corruption("unsupported WOTB version " +
                              std::to_string(version));
  }
  const uint64_t payload_size = reader.GetU64();
  if (reader.failed() || payload_size > reader.remaining() ||
      reader.remaining() - payload_size < sizeof(uint32_t)) {
    return Status::Corruption("payload length exceeds buffer");
  }
  std::string_view payload(reader.GetRaw(payload_size), payload_size);
  // Verify the checksum before trusting any length field inside.
  if (reader.GetU32() != Crc32(payload.data(), payload.size())) {
    return Status::Corruption("CRC mismatch: file is corrupt");
  }

  // Names are variable-width and decoded one by one; the fixed-width
  // sections are bounds-checked once each and decoded in bulk. Policy
  // rules are then checked over whole columns by DatasetBuilder::Adopt.
  ByteReader body(payload);
  uint64_t count = 0;

  WOT_RETURN_IF_ERROR(GetCount(&body, 4, &count));
  std::vector<Category> categories;
  categories.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    categories.push_back({CategoryId(), body.GetString()});
  }

  WOT_RETURN_IF_ERROR(GetCount(&body, 4, &count));
  std::vector<User> users;
  users.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    users.push_back({UserId(), body.GetString()});
  }

  WOT_RETURN_IF_ERROR(GetCount(&body, 8, &count));
  std::vector<Object> objects;
  objects.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t category = body.GetU32();
    objects.push_back({ObjectId(), CategoryId(category), body.GetString()});
  }

  WOT_RETURN_IF_ERROR(GetCount(&body, kReviewBytes, &count));
  std::vector<Review> reviews(count);
  const char* raw = body.GetRaw(count * kReviewBytes);
  for (uint64_t i = 0; i < count; ++i, raw += kReviewBytes) {
    reviews[i] = {ReviewId(), UserId(LoadLE32(raw)),
                  ObjectId(LoadLE32(raw + 4)), CategoryId()};
  }

  WOT_RETURN_IF_ERROR(GetCount(&body, kRatingBytes, &count));
  std::vector<ReviewRating> ratings(count);
  raw = body.GetRaw(count * kRatingBytes);
  for (uint64_t i = 0; i < count; ++i, raw += kRatingBytes) {
    ratings[i] = {UserId(LoadLE32(raw)), ReviewId(LoadLE32(raw + 4)),
                  std::bit_cast<double>(LoadLE64(raw + 8))};
  }

  WOT_RETURN_IF_ERROR(GetCount(&body, kTrustBytes, &count));
  std::vector<TrustStatement> trust(count);
  raw = body.GetRaw(count * kTrustBytes);
  for (uint64_t i = 0; i < count; ++i, raw += kTrustBytes) {
    trust[i] = {UserId(LoadLE32(raw)), UserId(LoadLE32(raw + 4))};
  }

  if (!body.AtEnd()) {
    return Status::Corruption(body.failed()
                                  ? "unexpected end of buffer"
                                  : "trailing bytes after last section");
  }
  WOT_ASSIGN_OR_RETURN(
      Dataset dataset,
      DatasetBuilder::FromValidatedColumns(
          std::move(categories), std::move(users), std::move(objects),
          std::move(reviews), std::move(ratings), std::move(trust)));
  DatasetBuilder builder;
  WOT_RETURN_IF_ERROR(builder.Adopt(std::move(dataset)));
  return builder.Build();
}
Status SaveDatasetBinary(const Dataset& dataset, const std::string& path) {
  return WriteStringToFile(path, SerializeDataset(dataset));
}

Result<Dataset> LoadDatasetBinary(const std::string& path) {
  WOT_ASSIGN_OR_RETURN(std::string buffer, ReadFileToString(path));
  Result<Dataset> dataset = DeserializeDataset(buffer);
  if (!dataset.ok()) {
    return dataset.status().WithContext(path);
  }
  return dataset;
}

}  // namespace wot
