// Snapshot segment files: one published TrustSnapshot — plus the full
// staged dataset it was derived from — serialized into a single
// versioned, little-endian, mmap-able file.
//
// Layout (all integers little-endian):
//
//   [0,  8)   magic "WOTSEG1\n"
//   [8, 16)   u64 bulk_offset (absolute, 8-byte aligned)
//   [16, ..)  structured section (wot::ByteWriter encoding):
//               u32 format_version (= 1)
//               u64 snapshot_version
//               u64 num_categories / users / objects / reviews /
//                   ratings / trust_statements
//               category names, user names,
//               objects  (u32 category, name),
//               reviews  (u32 writer, u32 object; the category is
//                         denormalized from the object at load),
//               ratings  (u32 rater, u32 review, f64 value),
//               trust    (u32 source, u32 target),
//               convergence (u64 iterations, f64 final_delta,
//                            u8 converged) per category,
//               postings: u8 present; per category u64 count +
//                         (u32 user, f64 score) entries
//   [bulk_offset, ..)  zero-padded to 8 bytes, then raw f64 blocks:
//               expertise (U x C), rater_reputation (U x C),
//               affiliation (U x C), review_quality (R)
//   [size-4, size)  u32 CRC32 of every preceding byte
//
// The double blocks are 8-byte aligned in the file so a loader can read
// them straight out of a read-only mapping (one bulk copy per matrix on
// little-endian hosts; DenseMatrix owns its memory, so a true in-place
// matrix view stays future work). Segments are written temp-then-rename
// (see AtomicWriteFileWith): a segment file is either complete or absent,
// and the trailing CRC rejects any bit rot in between.
//
// WriteSegment streams the file: the structured section goes through one
// ~1 MiB staging buffer that is folded into a running CRC and written out
// as it fills, and the f64 blocks are written straight from the matrices,
// so the file is never held whole in memory. bulk_offset precedes the
// section it follows; the writer learns it by running the same encoder
// into a byte-counting sink first.
#ifndef WOT_STORAGE_SEGMENT_H_
#define WOT_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wot/community/dataset.h"
#include "wot/core/trust_derivation.h"
#include "wot/linalg/dense_matrix.h"
#include "wot/reputation/engine.h"
#include "wot/service/trust_snapshot.h"
#include "wot/util/result.h"

namespace wot {
namespace storage {

/// \brief Everything a segment persists — the inputs TrustService::Restore
/// needs to come back as if it never restarted.
struct SegmentData {
  Dataset dataset;  ///< Full staged dataset at segment-write time.
  ReputationResult reputation;
  DenseMatrix affiliation;
  std::vector<ExpertisePostingPtr> postings;  ///< Empty when not persisted.
  uint64_t snapshot_version = 0;
};

/// \brief Header-level facts about a segment file (wot_cli storage
/// inspect). Produced only after the full-file CRC verified.
struct SegmentInfo {
  uint64_t snapshot_version = 0;
  uint64_t file_bytes = 0;
  uint64_t num_categories = 0;
  uint64_t num_users = 0;
  uint64_t num_objects = 0;
  uint64_t num_reviews = 0;
  uint64_t num_ratings = 0;
};

/// \brief Serializes \p snapshot + \p staged to \p path atomically
/// (temp-then-rename + directory fsync). \p staged must be the dataset
/// the snapshot was derived from (equal user/category/review/rating
/// counts; extra reviewless objects are fine and are persisted too).
Status WriteSegment(const std::string& path, const TrustSnapshot& snapshot,
                    const Dataset& staged);

/// \brief Maps \p path read-only, verifies the CRC, and decodes. Corrupt
/// or truncated files produce a clean error, never a fault.
Result<SegmentData> LoadSegment(const std::string& path);

/// \brief CRC + header verification without materializing the contents.
Result<SegmentInfo> ReadSegmentInfo(const std::string& path);

}  // namespace storage
}  // namespace wot

#endif  // WOT_STORAGE_SEGMENT_H_
