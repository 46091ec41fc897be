// Compact binary dataset serialization ("WOTB" format).
//
// Layout (little-endian):
//   magic "WOTB" | u32 version | u64 payload length | 6 sections |
//   u32 crc32(all section bytes)
// Sections, in order: categories, users, objects, reviews, ratings, trust.
// Strings are u32 length + bytes; counts are u64.
//
// The binary format is ~5x smaller and ~20x faster to load than the CSV
// directory; integrity is guarded by the trailing CRC-32.
#ifndef WOT_IO_BINARY_FORMAT_H_
#define WOT_IO_BINARY_FORMAT_H_

#include <string>

#include "wot/community/dataset.h"
#include "wot/util/result.h"

namespace wot {

/// \brief Current writer version. Readers accept exactly this version.
inline constexpr uint32_t kBinaryFormatVersion = 1;

/// \brief Serializes \p dataset to an in-memory buffer.
std::string SerializeDataset(const Dataset& dataset);

/// \brief Parses a buffer produced by SerializeDataset and checks it
/// against the default builder policy in one bulk pass
/// (DatasetBuilder::Adopt). Corrupt length fields, bad magic, version skew
/// and CRC mismatches all yield Corruption errors (never UB).
Result<Dataset> DeserializeDataset(std::string_view buffer);

/// \brief Writes the serialized dataset to \p path.
Status SaveDatasetBinary(const Dataset& dataset, const std::string& path);

/// \brief Reads a dataset from \p path.
Result<Dataset> LoadDatasetBinary(const std::string& path);

}  // namespace wot

#endif  // WOT_IO_BINARY_FORMAT_H_
