// v2 binary wire codec: the same Request/Response surface as the NDJSON
// codec (codec.h), framed as length-prefixed binary instead of JSON lines.
//
// Frame layout (all fixed-width fields little-endian):
//
//   offset  size  field
//   0       1     magic          0xB2
//   1       1     frame version  2
//   2       1     request: method code (RequestPayload variant index)
//                 response: status code (ApiCode)
//   3       1     request: reserved, 0
//                 response: result type (ResponsePayload variant index)
//   4       8     request id (i64, echoed in the response)
//   12      4     payload length (bytes after the 16-byte header)
//   16      n     payload
//
// The payload is the fields of the method/result struct's kWire table in
// api.h, in declaration order (see wire_schema.h): integers as
// little-endian fixed width, bools as one byte, doubles as IEEE-754 bits in a
// little-endian u64, strings u32-length-prefixed, vectors a u32 count
// followed by the elements. An error response carries the status message
// string as its entire payload.
//
// Decoding is total: any malformed frame comes back as a non-OK ApiStatus
// (with the id salvaged from the header when at least 12 bytes arrived),
// never a crash. Decoded envelopes carry `version = kProtocolVersion`:
// v2 is a *framing*, not a new semantic surface, so a decoded binary
// request or response is field-identical to its NDJSON twin.
//
// Negotiation (see docs/wire_protocol.md): a connection starts in NDJSON
// and either upgrades via {"v":1,"method":"upgrade","protocol":2} or is
// sniffed as binary-first when its very first byte is the frame magic
// (0xB2 can never start an NDJSON frame).
#ifndef WOT_API_BINARY_CODEC_H_
#define WOT_API_BINARY_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "wot/api/api.h"

namespace wot {
namespace api {

/// \brief First byte of every v2 binary frame. Never a legal first byte
/// of an NDJSON frame, so servers can sniff binary-first clients.
inline constexpr uint8_t kBinaryMagic = 0xB2;

/// \brief The binary framing version carried in byte 1 — and the value of
/// the upgrade handshake's "protocol" field.
inline constexpr int64_t kBinaryProtocolVersion = 2;

/// \brief Fixed frame header size in bytes.
inline constexpr size_t kBinaryHeaderSize = 16;

/// \brief Which framing a byte stream speaks.
enum class WireProtocol {
  kNdjson = 1,
  kBinary = 2,
};

/// \brief Parses "ndjson"/"binary" (as accepted by the tools' --protocol
/// flag); error on anything else.
Result<WireProtocol> WireProtocolFromName(std::string_view name);
const char* WireProtocolName(WireProtocol protocol);

/// \brief Encodes \p request as one complete binary frame.
std::string EncodeRequestBinary(const Request& request);

/// \brief Encodes \p response as one complete binary frame.
std::string EncodeResponseBinary(const Response& response);

/// \brief Decodes one binary request frame. On failure returns a non-OK
/// ApiStatus and leaves \p request with the id salvaged from the header
/// (when present) so the caller can correlate its error response. The
/// decoded request carries version = kProtocolVersion.
ApiStatus DecodeRequestBinary(std::string_view frame, Request* request);

/// \brief Decodes one binary response frame (the client side).
ApiStatus DecodeResponseBinary(std::string_view frame, Response* response);

// ---------------------------------------------------------------------------
// Framing.

/// \brief Splits a byte stream into complete binary frames, the binary
/// twin of server::LineAssembler. Append() buffers bytes; NextFrame()
/// pops the next complete frame. The assembler faults — sticky, reported
/// by faulted()/fault_message() — when the pending frame's magic byte is
/// wrong (stream desync) or its payload length exceeds the cap; complete
/// frames popped before the fault are unaffected.
class BinaryFrameAssembler {
 public:
  explicit BinaryFrameAssembler(size_t max_payload_bytes)
      : max_payload_bytes_(max_payload_bytes) {}

  /// \brief Buffers \p bytes; returns false once the stream has faulted.
  bool Append(std::string_view bytes);

  /// \brief The next complete frame, or nullopt when more bytes are
  /// needed (or the stream has faulted).
  std::optional<std::string> NextFrame();

  bool faulted() const { return faulted_; }
  /// Why the stream faulted (empty while healthy).
  const std::string& fault_message() const { return fault_message_; }
  /// Bytes buffered but not yet returned by NextFrame().
  size_t buffered() const { return buffer_.size() - start_; }

 private:
  // Validates the frame at the head of the buffer; sets the fault state.
  void CheckHead();

  size_t max_payload_bytes_;
  std::string buffer_;
  size_t start_ = 0;
  bool faulted_ = false;
  std::string fault_message_;
};

// ---------------------------------------------------------------------------
// Upgrade handshake (transport-level; never reaches a Frontend).

/// \brief A decoded {"v":1,"method":"upgrade",...} frame.
struct UpgradeRequest {
  int64_t id = 0;
  /// The requested protocol ("protocol" field, top-level or in params);
  /// 0 when absent or mistyped — the server answers INVALID_ARGUMENT.
  int64_t protocol = 0;
};

/// \brief Parses \p line as an upgrade handshake. Returns nullopt when the
/// line is not a well-formed v1 frame whose method is "upgrade" — such
/// lines belong to the normal dispatch path.
std::optional<UpgradeRequest> ParseUpgradeLine(std::string_view line);

/// \brief The NDJSON acknowledgement of an accepted upgrade (a bare OK
/// response; every frame after it speaks v2 binary). No trailing newline.
std::string EncodeUpgradeAccept(int64_t id);

}  // namespace api
}  // namespace wot

#endif  // WOT_API_BINARY_CODEC_H_
