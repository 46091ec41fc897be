#include "wot/api/codec.h"

#include <concepts>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "wot/io/json_parser.h"
#include "wot/io/json_writer.h"

namespace wot {
namespace api {
namespace {

// Replication artifact bytes are arbitrary binary; on the NDJSON wire
// they travel hex-encoded (the v2 binary framing carries them raw).
std::string HexEncode(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

bool HexDecode(std::string_view hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

template <typename Message>
void WriteFields(const Message& message, JsonWriter* w);

template <typename V>
void WriteValue(const V& value, bool hex, JsonWriter* w) {
  if constexpr (std::is_same_v<V, std::string>) {
    if (hex) {
      w->String(HexEncode(value));
    } else {
      w->String(value);
    }
  } else if constexpr (std::is_same_v<V, bool>) {
    w->Bool(value);
  } else if constexpr (std::is_same_v<V, double>) {
    w->Double(value);
  } else if constexpr (std::is_same_v<V, int64_t>) {
    w->Int(value);
  } else if constexpr (std::is_unsigned_v<V>) {
    w->UInt(value);
  } else if constexpr (wire::kIsVector<V>) {
    w->BeginArray();
    for (const auto& item : value) WriteValue(item, hex, w);
    w->EndArray();
  } else {
    w->BeginObject();
    WriteFields(value, w);
    w->EndObject();
  }
}

template <typename Message>
void WriteFields(const Message& message, JsonWriter* w) {
  wire::ForEachField(message, [&](const auto& field, const auto& value) {
    if (field.present_if != nullptr && message.*field.present_if <= 0) {
      return;
    }
    w->Key(field.name);
    WriteValue(value, field.hex, w);
  });
}

template <typename Message>
ApiStatus ReadFields(const JsonValue& object, Message* message);

template <typename V>
ApiStatus FromResult(Result<V> result, V* out) {
  if (!result.ok()) return ApiStatus::FromStatus(result.status());
  *out = std::move(result).ValueOrDie();
  return ApiStatus::Ok();
}

ApiStatus ReadValue(const JsonValue& object, std::string_view key, bool hex,
                    std::string* out) {
  if (!hex) return FromResult(object.GetString(key), out);
  Result<std::string> value = object.GetString(key);
  if (!value.ok()) return ApiStatus::FromStatus(value.status());
  if (!HexDecode(value.ValueOrDie(), out)) {
    return ApiStatus::InvalidArgument("'" + std::string(key) +
                                      "' must be a hex-encoded byte string");
  }
  return ApiStatus::Ok();
}

ApiStatus ReadValue(const JsonValue& object, std::string_view key, bool,
                    double* out) {
  return FromResult(object.GetDouble(key), out);
}

ApiStatus ReadValue(const JsonValue& object, std::string_view key, bool,
                    bool* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_bool()) {
    return ApiStatus::InvalidArgument("missing '" + std::string(key) +
                                      "' bool");
  }
  *out = value->bool_value();
  return ApiStatus::Ok();
}

// Every integer travels as a JSON number read back through int64.
template <std::integral I>
ApiStatus ReadValue(const JsonValue& object, std::string_view key, bool,
                    I* out) {
  Result<int64_t> value = object.GetInt(key);
  if (!value.ok()) return ApiStatus::FromStatus(value.status());
  *out = static_cast<I>(value.ValueOrDie());
  return ApiStatus::Ok();
}

template <typename E>
ApiStatus ReadValue(const JsonValue& object, std::string_view key, bool,
                    std::vector<E>* out) {
  const JsonValue* array = object.Find(key);
  if (array == nullptr) {
    return ApiStatus::InvalidArgument("missing '" + std::string(key) +
                                      "' array");
  }
  if (!array->is_array()) {
    return ApiStatus::InvalidArgument("'" + std::string(key) +
                                      "' must be an array");
  }
  for (const JsonValue& item : array->array()) {
    E element{};
    if constexpr (std::is_same_v<E, int64_t>) {
      if (!item.is_number() || !item.number_is_int()) {
        return ApiStatus::InvalidArgument("'" + std::string(key) +
                                          "' must hold integers");
      }
      element = item.int_value();
    } else {
      ApiStatus status = ReadFields(item, &element);
      if (!status.ok()) return status;
    }
    out->push_back(std::move(element));
  }
  return ApiStatus::Ok();
}

// Reads fields in table order and stops at the first bad one; keys the
// table does not name are ignored.
template <typename Message>
ApiStatus ReadFields(const JsonValue& object, Message* message) {
  ApiStatus status;
  wire::ForEachField(*message, [&](const auto& field, auto& value) {
    if (!status.ok()) return;
    if (field.optional && object.Find(field.name) == nullptr) return;
    status = ReadValue(object, field.name, field.hex, &value);
  });
  return status;
}

// Pulls the optional envelope integers out of a (possibly partial) frame
// so error responses can still be correlated.
void SalvageEnvelope(const JsonValue& root, Request* request) {
  if (!root.is_object()) return;
  const JsonValue* id = root.Find("id");
  if (id != nullptr && id->is_number() && id->number_is_int()) {
    request->id = id->int_value();
  }
  const JsonValue* version = root.Find("v");
  if (version != nullptr && version->is_number() &&
      version->number_is_int()) {
    request->version = version->int_value();
  }
}

ApiStatus DecodeParams(const std::string& method, const JsonValue& root,
                       Request* request) {
  static const JsonValue kEmptyParams =
      JsonValue::MakeObject({});
  const JsonValue* params = root.Find("params");
  if (params == nullptr) {
    params = &kEmptyParams;  // parameterless methods may omit the object
  } else if (!params->is_object()) {
    return ApiStatus::InvalidArgument("'params' must be an object");
  }
  std::optional<size_t> index = wire::IndexOfName<RequestPayload>(method);
  if (!index.has_value()) {
    return ApiStatus::Unimplemented("unknown method '" + method + "'");
  }
  ApiStatus status;
  wire::EmplaceAlternative(request->payload, *index, [&](auto& message) {
    status = ReadFields(*params, &message);
  });
  return status;
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v").Int(request.version);
  w.Key("id").Int(request.id);
  w.Key("method").String(MethodName(request.payload));
  w.Key("params").BeginObject();
  std::visit([&](const auto& params) { WriteFields(params, &w); },
             request.payload);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string EncodeResponse(const Response& response) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v").Int(response.version);
  w.Key("id").Int(response.id);
  w.Key("status").String(ApiCodeName(response.status.code));
  if (!response.status.ok()) {
    w.Key("error").String(response.status.message);
  } else if (response.payload.index() != 0) {
    w.Key("result_type")
        .String(wire::kNames<ResponsePayload>[response.payload.index()]);
    w.Key("result").BeginObject();
    std::visit([&](const auto& result) { WriteFields(result, &w); },
               response.payload);
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

ApiStatus DecodeRequest(std::string_view line, Request* request) {
  *request = Request{};
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    return ApiStatus::InvalidArgument("malformed frame: " +
                                      parsed.status().message());
  }
  const JsonValue& root = parsed.ValueOrDie();
  if (!root.is_object()) {
    return ApiStatus::InvalidArgument("frame must be a JSON object");
  }
  SalvageEnvelope(root, request);
  if (root.Find("v") == nullptr) {
    return ApiStatus::InvalidArgument(
        "missing protocol version field 'v'");
  }
  Result<int64_t> version = root.GetInt("v");
  if (!version.ok()) {
    // Present but mistyped — report that, not "missing".
    return ApiStatus::InvalidArgument("protocol version " +
                                      version.status().message());
  }
  if (version.ValueOrDie() != kProtocolVersion) {
    return ApiStatus::InvalidArgument(
        "unsupported protocol version " +
        std::to_string(version.ValueOrDie()) + " (this server speaks v" +
        std::to_string(kProtocolVersion) + ")");
  }
  const JsonValue* id = root.Find("id");
  if (id != nullptr && (!id->is_number() || !id->number_is_int())) {
    return ApiStatus::InvalidArgument("'id' must be an integer");
  }
  Result<std::string> method = root.GetString("method");
  if (!method.ok()) {
    return ApiStatus::FromStatus(method.status());
  }
  return DecodeParams(method.ValueOrDie(), root, request);
}

ApiStatus DecodeResponse(std::string_view line, Response* response) {
  *response = Response{};
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    return ApiStatus::InvalidArgument("malformed frame: " +
                                      parsed.status().message());
  }
  const JsonValue& root = parsed.ValueOrDie();
  if (!root.is_object()) {
    return ApiStatus::InvalidArgument("frame must be a JSON object");
  }
  Result<int64_t> version = root.GetInt("v");
  if (!version.ok()) return ApiStatus::FromStatus(version.status());
  response->version = version.ValueOrDie();
  Result<int64_t> id = root.GetInt("id");
  if (!id.ok()) return ApiStatus::FromStatus(id.status());
  response->id = id.ValueOrDie();
  Result<std::string> code_name = root.GetString("status");
  if (!code_name.ok()) return ApiStatus::FromStatus(code_name.status());
  Result<ApiCode> code = ApiCodeFromName(code_name.ValueOrDie());
  if (!code.ok()) return ApiStatus::FromStatus(code.status());
  response->status.code = code.ValueOrDie();
  if (!response->status.ok()) {
    Result<std::string> error = root.GetString("error");
    if (error.ok()) {
      response->status.message = std::move(error).ValueOrDie();
    }
    return ApiStatus::Ok();  // the *frame* decoded fine
  }
  const JsonValue* result_type = root.Find("result_type");
  if (result_type == nullptr) {
    response->payload = std::monostate{};  // e.g. a bare OK
    return ApiStatus::Ok();
  }
  if (!result_type->is_string()) {
    return ApiStatus::InvalidArgument("'result_type' must be a string");
  }
  const JsonValue* result = root.Find("result");
  if (result == nullptr || !result->is_object()) {
    return ApiStatus::InvalidArgument("missing 'result' object");
  }
  std::optional<size_t> index =
      wire::IndexOfName<ResponsePayload>(result_type->string_value());
  if (!index.has_value()) {
    return ApiStatus::InvalidArgument("unknown result_type '" +
                                      result_type->string_value() + "'");
  }
  ApiStatus status;
  wire::EmplaceAlternative(response->payload, *index, [&](auto& message) {
    status = ReadFields(*result, &message);
  });
  return status;
}

}  // namespace api
}  // namespace wot
