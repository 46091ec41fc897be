#include "wot/api/api.h"

namespace wot {
namespace api {

const char* ApiCodeName(ApiCode code) {
  switch (code) {
    case ApiCode::kOk:
      return "OK";
    case ApiCode::kNotFound:
      return "NOT_FOUND";
    case ApiCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ApiCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case ApiCode::kInternal:
      return "INTERNAL";
  }
  return "INTERNAL";
}

Result<ApiCode> ApiCodeFromName(std::string_view name) {
  for (ApiCode code :
       {ApiCode::kOk, ApiCode::kNotFound, ApiCode::kInvalidArgument,
        ApiCode::kUnimplemented, ApiCode::kInternal}) {
    if (name == ApiCodeName(code)) return code;
  }
  return Status::InvalidArgument("unknown ApiCode name '" +
                                 std::string(name) + "'");
}

std::string ApiStatus::ToString() const {
  if (ok()) return "OK";
  return std::string(ApiCodeName(code)) + ": " + message;
}

ApiStatus ApiStatus::FromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return Ok();
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      return NotFound(status.message());
    case StatusCode::kInvalidArgument:
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
      return InvalidArgument(status.message());
    case StatusCode::kNotImplemented:
      return Unimplemented(status.message());
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
    case StatusCode::kInternal:
      return Internal(status.message());
  }
  return Internal(status.message());
}

Status ToStatus(const ApiStatus& status) {
  switch (status.code) {
    case ApiCode::kOk:
      return Status::OK();
    case ApiCode::kNotFound:
      return Status::NotFound(status.message);
    case ApiCode::kInvalidArgument:
      return Status::InvalidArgument(status.message);
    case ApiCode::kUnimplemented:
      return Status::NotImplemented(status.message);
    case ApiCode::kInternal:
      return Status::Internal(status.message);
  }
  return Status::Internal(status.message);
}

const char* MethodName(const RequestPayload& payload) {
  return wire::kNames<RequestPayload>[payload.index()];
}

const std::vector<std::string>& AllMethodNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>(
      wire::kNames<RequestPayload>.begin(), wire::kNames<RequestPayload>.end());
  return *names;
}

}  // namespace api
}  // namespace wot
