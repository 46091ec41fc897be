// NDJSON wire codec for the api layer: one Request or Response per line.
//
// Frames (compact JSON, no interior newlines; see docs/wire_protocol.md):
//
//   request:  {"v":1,"id":7,"method":"trust",
//              "params":{"source":"alice","target":"bob"}}
//   response: {"v":1,"id":7,"status":"OK","result":{"trust":0.42,
//              "snapshot_version":3}}
//   error:    {"v":1,"id":7,"status":"NOT_FOUND","error":"no user ..."}
//
// Params and result keys come from each message's kWire table in api.h
// (see wire_schema.h), the same table the v2 binary codec walks.
//
// Encoding is deterministic (fixed key order, shortest round-trip doubles)
// so a response stream can be byte-diffed in tests. Decoding is strict and
// total: any malformed frame comes back as a non-OK ApiStatus, never a
// crash — the decoded envelope's `id`/`version` are still populated on a
// best-effort basis so the server can address its error reply.
#ifndef WOT_API_CODEC_H_
#define WOT_API_CODEC_H_

#include <string>
#include <string_view>

#include "wot/api/api.h"

namespace wot {
namespace api {

/// \brief Encodes \p request as one NDJSON frame (no trailing newline).
std::string EncodeRequest(const Request& request);

/// \brief Encodes \p response as one NDJSON frame (no trailing newline).
std::string EncodeResponse(const Response& response);

/// \brief Decodes one request frame. On failure returns a non-OK ApiStatus
/// and leaves \p request with whatever envelope fields (id, version) could
/// be salvaged, so the caller can still correlate its error response.
/// A frame whose "v" differs from kProtocolVersion is an error.
ApiStatus DecodeRequest(std::string_view line, Request* request);

/// \brief Decodes one response frame (the client side of the wire).
ApiStatus DecodeResponse(std::string_view line, Response* response);

}  // namespace api
}  // namespace wot

#endif  // WOT_API_CODEC_H_
