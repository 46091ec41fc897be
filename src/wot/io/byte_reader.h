// Bounds-checked little-endian byte deserializer, the inverse of
// ByteWriter.
//
// The reader is sticky-failure: the first underflow latches failed() and
// every later accessor returns a zero value without advancing, so decode
// code stays a straight line of Get calls with a single `failed()` check
// at the end instead of per-field error plumbing. String lengths are
// validated against the remaining buffer before any allocation, so a
// hostile length prefix can never demand more memory than the frame
// itself occupies.
#ifndef WOT_IO_BYTE_READER_H_
#define WOT_IO_BYTE_READER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace wot {

/// \brief Little-endian loads from raw bytes, for bulk decoders that
/// bounds-checked a whole fixed-width record array with ByteReader::GetRaw.
inline uint32_t LoadLE32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

inline uint64_t LoadLE64(const char* p) {
  return static_cast<uint64_t>(LoadLE32(p)) |
         static_cast<uint64_t>(LoadLE32(p + 4)) << 32;
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int32_t GetI32();
  int64_t GetI64();
  double GetDouble();
  /// u32 length prefix followed by that many raw bytes; fails (and
  /// returns empty) when the prefix overruns the buffer.
  std::string GetString();

  /// \brief Bounds-checks and consumes \p n raw bytes in one step,
  /// returning a pointer into the underlying buffer (valid as long as
  /// the buffer is), or nullptr after latching failure when fewer than
  /// \p n bytes remain. Bulk decoders of fixed-width record arrays use
  /// this to hoist the per-field bounds checks out of their hot loops.
  const char* GetRaw(size_t n);

  /// True once any read has overrun the buffer.
  bool failed() const { return failed_; }
  size_t remaining() const { return data_.size() - pos_; }
  /// True when every byte has been consumed without a failure — decoders
  /// require this so trailing garbage is rejected, not ignored.
  bool AtEnd() const { return !failed_ && remaining() == 0; }

 private:
  uint64_t GetLittleEndian(int bytes);

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace wot

#endif  // WOT_IO_BYTE_READER_H_
