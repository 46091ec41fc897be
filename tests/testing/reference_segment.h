// Reference segment encoder in the form WriteSegment had before it
// streamed: the structured section built in one ByteWriter, then the whole
// file (header, section, padding, f64 blocks, CRC) in one string. It
// writes nothing to disk, so the streamed file can be compared with it
// byte for byte.
#ifndef WOT_TESTS_TESTING_REFERENCE_SEGMENT_H_
#define WOT_TESTS_TESTING_REFERENCE_SEGMENT_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "wot/community/dataset.h"
#include "wot/io/byte_writer.h"
#include "wot/io/crc32.h"
#include "wot/service/trust_snapshot.h"

namespace wot {
namespace testing {

inline void ReferenceStoreU64(uint64_t v, char* p) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
}

inline void ReferenceAppendDoubles(const double* src, size_t count,
                                   std::string* out) {
  char bytes[8];
  for (size_t i = 0; i < count; ++i) {
    ReferenceStoreU64(std::bit_cast<uint64_t>(src[i]), bytes);
    out->append(bytes, 8);
  }
}

/// The bytes of the segment file for \p snapshot derived from \p staged.
inline std::string ReferenceSegmentBytes(const TrustSnapshot& snapshot,
                                         const Dataset& staged) {
  const size_t num_users = staged.num_users();
  const size_t num_categories = staged.num_categories();
  const ReputationResult& reputation = snapshot.reputation();

  ByteWriter structured;
  structured.PutU32(1);  // format version
  structured.PutU64(snapshot.version());
  structured.PutU64(num_categories);
  structured.PutU64(num_users);
  structured.PutU64(staged.num_objects());
  structured.PutU64(staged.num_reviews());
  structured.PutU64(staged.num_ratings());
  structured.PutU64(staged.num_trust_statements());
  for (const Category& category : staged.categories()) {
    structured.PutString(category.name);
  }
  for (const User& user : staged.users()) {
    structured.PutString(user.name);
  }
  for (const Object& object : staged.objects()) {
    structured.PutU32(object.category.value()).PutString(object.name);
  }
  for (const Review& review : staged.reviews()) {
    structured.PutU32(review.writer.value()).PutU32(review.object.value());
  }
  for (const ReviewRating& rating : staged.ratings()) {
    structured.PutU32(rating.rater.value())
        .PutU32(rating.review.value())
        .PutDouble(rating.value);
  }
  for (const TrustStatement& statement : staged.trust_statements()) {
    structured.PutU32(statement.source.value())
        .PutU32(statement.target.value());
  }
  for (const ConvergenceInfo& info : reputation.convergence) {
    structured.PutU64(static_cast<uint64_t>(info.iterations))
        .PutDouble(info.final_delta)
        .PutU8(info.converged ? 1 : 0);
  }
  const std::vector<ExpertisePostingPtr>& postings =
      snapshot.deriver().postings();
  structured.PutU8(postings.empty() ? 0 : 1);
  for (const ExpertisePostingPtr& posting : postings) {
    structured.PutU64(posting->size());
    for (const ScoredUser& entry : *posting) {
      structured.PutU32(entry.user).PutDouble(entry.score);
    }
  }

  std::string file("WOTSEG1\n", 8);
  file.resize(16, '\0');
  file += structured.buffer();
  while (file.size() % 8 != 0) {
    file.push_back('\0');
  }
  ReferenceStoreU64(file.size(), file.data() + 8);

  const size_t matrix_doubles = num_users * num_categories;
  ReferenceAppendDoubles(reputation.expertise.data().data(), matrix_doubles,
                         &file);
  ReferenceAppendDoubles(reputation.rater_reputation.data().data(),
                         matrix_doubles, &file);
  ReferenceAppendDoubles(snapshot.affiliation().data().data(),
                         matrix_doubles, &file);
  ReferenceAppendDoubles(reputation.review_quality.data(),
                         reputation.review_quality.size(), &file);

  const uint32_t crc = Crc32(file.data(), file.size());
  for (int i = 0; i < 4; ++i) {
    file.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return file;
}

}  // namespace testing
}  // namespace wot

#endif  // WOT_TESTS_TESTING_REFERENCE_SEGMENT_H_
