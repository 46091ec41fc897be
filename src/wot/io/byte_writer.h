// Append-only little-endian byte serializer for wire frames and files.
//
// ByteWriter defines the byte order explicitly: every fixed-width field is
// emitted little-endian byte by byte, so frames and files produced on any
// host are identical.
// Strings are length-delimited with a u32 prefix. Doubles travel as their
// IEEE-754 bit pattern in a little-endian u64.
#ifndef WOT_IO_BYTE_WRITER_H_
#define WOT_IO_BYTE_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace wot {

class ByteWriter {
 public:
  ByteWriter& PutU8(uint8_t v);
  ByteWriter& PutU32(uint32_t v);
  ByteWriter& PutU64(uint64_t v);
  ByteWriter& PutI32(int32_t v);
  ByteWriter& PutI64(int64_t v);
  ByteWriter& PutDouble(double v);
  /// u32 length prefix followed by the raw bytes.
  ByteWriter& PutString(std::string_view s);
  ByteWriter& PutRaw(std::string_view bytes);

  size_t size() const { return buffer_.size(); }
  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }
  /// Empties the buffer but keeps its capacity, so a staging buffer is
  /// reused without reallocating.
  void Clear() { buffer_.clear(); }

 private:
  ByteWriter& PutLittleEndian(uint64_t v, int bytes);

  std::string buffer_;
};

}  // namespace wot

#endif  // WOT_IO_BYTE_WRITER_H_
