#include "wot/api/binary_codec.h"

#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "wot/api/codec.h"
#include "wot/io/byte_reader.h"
#include "wot/io/byte_writer.h"
#include "wot/io/json_parser.h"

namespace wot {
namespace api {
namespace {

// Byte offsets within the fixed header.
constexpr size_t kMagicOffset = 0;
constexpr size_t kVersionOffset = 1;
constexpr size_t kCodeOffset = 2;     // method (request) / status (response)
constexpr size_t kAuxOffset = 3;      // reserved (request) / result type
constexpr size_t kIdOffset = 4;
constexpr size_t kLengthOffset = 12;

uint8_t HeaderByte(std::string_view frame, size_t offset) {
  return static_cast<uint8_t>(frame[offset]);
}

uint32_t HeaderLength(std::string_view frame) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(HeaderByte(frame, kLengthOffset + i))
         << (8 * i);
  }
  return v;
}

int64_t HeaderId(std::string_view frame) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(HeaderByte(frame, kIdOffset + i)) << (8 * i);
  }
  return static_cast<int64_t>(v);
}

std::string FinishFrame(uint8_t code, uint8_t aux, int64_t id,
                        std::string payload) {
  ByteWriter w;
  w.PutU8(kBinaryMagic)
      .PutU8(static_cast<uint8_t>(kBinaryProtocolVersion))
      .PutU8(code)
      .PutU8(aux)
      .PutI64(id)
      .PutU32(static_cast<uint32_t>(payload.size()))
      .PutRaw(payload);
  return w.Take();
}

// Writes \p value in the payload layout described in binary_codec.h.
template <typename V>
void PutValue(const V& value, ByteWriter* w) {
  if constexpr (std::is_same_v<V, std::string>) {
    w->PutString(value);
  } else if constexpr (std::is_same_v<V, bool>) {
    w->PutU8(value ? 1 : 0);
  } else if constexpr (std::is_same_v<V, double>) {
    w->PutDouble(value);
  } else if constexpr (std::is_same_v<V, int64_t>) {
    w->PutI64(value);
  } else if constexpr (std::is_same_v<V, uint64_t>) {
    w->PutU64(value);
  } else if constexpr (std::is_same_v<V, uint32_t>) {
    w->PutU32(value);
  } else if constexpr (wire::kIsVector<V>) {
    w->PutU32(static_cast<uint32_t>(value.size()));
    for (const auto& item : value) PutValue(item, w);
  } else {
    wire::ForEachField(value, [&](const auto&, const auto& member) {
      PutValue(member, w);
    });
  }
}

// ByteReader failures are sticky, so a short payload simply leaves the
// reader failed; vectors stop at the first failed element.
template <typename V>
void GetValue(ByteReader* r, V* out) {
  if constexpr (std::is_same_v<V, std::string>) {
    *out = r->GetString();
  } else if constexpr (std::is_same_v<V, bool>) {
    *out = r->GetU8() != 0;
  } else if constexpr (std::is_same_v<V, double>) {
    *out = r->GetDouble();
  } else if constexpr (std::is_same_v<V, int64_t>) {
    *out = r->GetI64();
  } else if constexpr (std::is_same_v<V, uint64_t>) {
    *out = r->GetU64();
  } else if constexpr (std::is_same_v<V, uint32_t>) {
    *out = r->GetU32();
  } else if constexpr (wire::kIsVector<V>) {
    const uint32_t count = r->GetU32();
    for (uint32_t i = 0; i < count && !r->failed(); ++i) {
      typename V::value_type item{};
      GetValue(r, &item);
      out->push_back(std::move(item));
    }
  } else {
    wire::ForEachField(*out, [&](const auto&, auto& member) {
      GetValue(r, &member);
    });
  }
}

// Shared header validation; fills *id with the salvaged correlator.
ApiStatus CheckHeader(std::string_view frame, int64_t* id) {
  if (frame.size() < kBinaryHeaderSize) {
    return ApiStatus::InvalidArgument(
        "truncated binary frame: " + std::to_string(frame.size()) +
        " bytes is shorter than the " + std::to_string(kBinaryHeaderSize) +
        "-byte header");
  }
  if (HeaderByte(frame, kMagicOffset) != kBinaryMagic) {
    return ApiStatus::InvalidArgument("bad frame magic");
  }
  *id = HeaderId(frame);
  uint8_t version = HeaderByte(frame, kVersionOffset);
  if (version != kBinaryProtocolVersion) {
    return ApiStatus::InvalidArgument(
        "unsupported binary framing version " + std::to_string(version) +
        " (this build speaks v" + std::to_string(kBinaryProtocolVersion) +
        ")");
  }
  uint32_t length = HeaderLength(frame);
  if (length != frame.size() - kBinaryHeaderSize) {
    return ApiStatus::InvalidArgument(
        "frame payload length " + std::to_string(length) +
        " does not match the " +
        std::to_string(frame.size() - kBinaryHeaderSize) +
        " payload bytes received");
  }
  return ApiStatus::Ok();
}

}  // namespace

Result<WireProtocol> WireProtocolFromName(std::string_view name) {
  if (name == "ndjson") return WireProtocol::kNdjson;
  if (name == "binary") return WireProtocol::kBinary;
  return Status::InvalidArgument("unknown protocol '" + std::string(name) +
                                 "' (expected ndjson or binary)");
}

const char* WireProtocolName(WireProtocol protocol) {
  return protocol == WireProtocol::kBinary ? "binary" : "ndjson";
}

std::string EncodeRequestBinary(const Request& request) {
  ByteWriter payload;
  std::visit([&](const auto& params) { PutValue(params, &payload); },
             request.payload);
  return FinishFrame(static_cast<uint8_t>(request.payload.index()),
                     /*aux=*/0, request.id, payload.Take());
}

std::string EncodeResponseBinary(const Response& response) {
  ByteWriter payload;
  uint8_t result_type = 0;
  if (!response.status.ok()) {
    payload.PutString(response.status.message);
  } else {
    result_type = static_cast<uint8_t>(response.payload.index());
    std::visit([&](const auto& result) { PutValue(result, &payload); },
               response.payload);
  }
  return FinishFrame(static_cast<uint8_t>(response.status.code), result_type,
                     response.id, payload.Take());
}

ApiStatus DecodeRequestBinary(std::string_view frame, Request* request) {
  *request = Request{};
  ApiStatus header = CheckHeader(frame, &request->id);
  if (!header.ok()) {
    return header;
  }
  // Byte 3 is reserved on requests and deliberately ignored so it can be
  // claimed by a future revision without breaking this decoder.
  const uint8_t method = HeaderByte(frame, kCodeOffset);
  ByteReader reader(frame.substr(kBinaryHeaderSize));
  if (!wire::EmplaceAlternative(request->payload, method, [&](auto& params) {
        GetValue(&reader, &params);
      })) {
    return ApiStatus::Unimplemented("unknown method code " +
                                    std::to_string(method));
  }
  if (!reader.AtEnd()) {
    return ApiStatus::InvalidArgument(std::string("malformed '") +
                                      MethodName(request->payload) +
                                      "' payload");
  }
  return ApiStatus::Ok();
}

ApiStatus DecodeResponseBinary(std::string_view frame, Response* response) {
  *response = Response{};
  ApiStatus header = CheckHeader(frame, &response->id);
  if (!header.ok()) {
    return header;
  }
  uint8_t code = HeaderByte(frame, kCodeOffset);
  if (code > static_cast<uint8_t>(ApiCode::kInternal)) {
    return ApiStatus::InvalidArgument("unknown status code " +
                                      std::to_string(code));
  }
  response->status.code = static_cast<ApiCode>(code);
  ByteReader reader(frame.substr(kBinaryHeaderSize));
  if (!response->status.ok()) {
    response->status.message = reader.GetString();
    if (!reader.AtEnd()) {
      return ApiStatus::InvalidArgument("malformed error payload");
    }
    return ApiStatus::Ok();  // the *frame* decoded fine
  }
  const uint8_t result_type = HeaderByte(frame, kAuxOffset);
  if (!wire::EmplaceAlternative(response->payload, result_type,
                                [&](auto& result) {
                                  GetValue(&reader, &result);
                                })) {
    return ApiStatus::InvalidArgument("unknown result type code " +
                                      std::to_string(result_type));
  }
  if (!reader.AtEnd()) {
    return ApiStatus::InvalidArgument("malformed result payload");
  }
  return ApiStatus::Ok();
}

bool BinaryFrameAssembler::Append(std::string_view bytes) {
  if (faulted_) {
    return false;
  }
  buffer_.append(bytes);
  CheckHead();
  return !faulted_;
}

void BinaryFrameAssembler::CheckHead() {
  if (faulted_ || buffered() == 0) {
    return;
  }
  if (static_cast<uint8_t>(buffer_[start_]) != kBinaryMagic) {
    faulted_ = true;
    fault_message_ = "bad frame magic (stream desynchronized)";
    return;
  }
  if (buffered() >= kBinaryHeaderSize) {
    uint32_t length = HeaderLength(
        std::string_view(buffer_).substr(start_, kBinaryHeaderSize));
    if (length > max_payload_bytes_) {
      faulted_ = true;
      fault_message_ = "frame payload length " + std::to_string(length) +
                       " exceeds " + std::to_string(max_payload_bytes_) +
                       " bytes";
    }
  }
}

std::optional<std::string> BinaryFrameAssembler::NextFrame() {
  CheckHead();
  if (faulted_ || buffered() < kBinaryHeaderSize) {
    // Reclaim the consumed prefix once it dominates the buffer.
    if (start_ > 0 && start_ >= buffer_.size() / 2) {
      buffer_.erase(0, start_);
      start_ = 0;
    }
    return std::nullopt;
  }
  uint32_t length = HeaderLength(
      std::string_view(buffer_).substr(start_, kBinaryHeaderSize));
  size_t total = kBinaryHeaderSize + length;
  if (buffered() < total) {
    return std::nullopt;
  }
  std::string frame = buffer_.substr(start_, total);
  start_ += total;
  return frame;
}

std::optional<UpgradeRequest> ParseUpgradeLine(std::string_view line) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed.ValueOrDie().is_object()) {
    return std::nullopt;
  }
  const JsonValue& root = parsed.ValueOrDie();
  Result<int64_t> version = root.GetInt("v");
  if (!version.ok() || version.ValueOrDie() != kProtocolVersion) {
    return std::nullopt;
  }
  Result<std::string> method = root.GetString("method");
  if (!method.ok() || method.ValueOrDie() != "upgrade") {
    return std::nullopt;
  }
  UpgradeRequest upgrade;
  const JsonValue* id = root.Find("id");
  if (id != nullptr && id->is_number() && id->number_is_int()) {
    upgrade.id = id->int_value();
  }
  // "protocol" may sit at the top level (the documented frame) or inside
  // params; absent/mistyped stays 0 and the server rejects it.
  Result<int64_t> protocol = root.GetInt("protocol");
  if (!protocol.ok()) {
    const JsonValue* params = root.Find("params");
    if (params != nullptr && params->is_object()) {
      protocol = params->GetInt("protocol");
    }
  }
  if (protocol.ok()) {
    upgrade.protocol = protocol.ValueOrDie();
  }
  return upgrade;
}

std::string EncodeUpgradeAccept(int64_t id) {
  Response ok;
  ok.id = id;
  return EncodeResponse(ok);
}

}  // namespace api
}  // namespace wot
