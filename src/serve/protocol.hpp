// The `hpcfail serve` wire protocol: line-delimited JSON, one request and
// one response per line (grammar in FORMATS.md "serve protocol", DESIGN.md
// §14).
//
//   request:   {"id":N,"verb":"<verb>","params":{...}}      (params optional)
//   response:  {"id":N,"ok":true,"verb":"<verb>","epoch":E,"data":{...}}
//   error:     {"id":N,"ok":false,"error":{"kind":"<kind>","message":"..."}}
//
// Responses are deterministic byte-for-byte for a given server state and
// request (fixed key order, sorted data keys, no wall-clock fields), which
// is what lets tests/serve_test.cpp pin golden transcripts and the
// snapshot-boot suite prove snapshot and text boots indistinguishable.
//
// A malformed line — truncated JSON, unknown verb, oversized input, a
// degraded byte stream provoked through the serve.request.parse fault site
// — yields a structured error response and leaves the connection (and the
// process) alive; the protocol has no fatal inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace hpcfail::serve {

/// The protocol verbs.  The server dispatches on this enum with a switch
/// that has no default, so -Wswitch flags a verb without a handler.
enum class Verb : std::uint8_t {
  Causes,
  LeadTime,
  Metrics,
  NodeHealth,
  Ping,
  Report,
  Shutdown,
  Status,
};

/// Largest accepted request line, bytes.  Longer lines are answered with
/// an "oversized" error without being parsed (bounding per-request memory).
inline constexpr std::size_t kMaxRequestBytes = std::size_t{64} * 1024;

enum class ProtocolErrorKind : std::uint8_t {
  BadRequest,   ///< not a JSON object, or a missing/mistyped envelope field
  UnknownVerb,  ///< well-formed envelope, verb not in the table
  BadParams,    ///< verb-specific parameter missing or malformed
  Oversized,    ///< request line exceeds kMaxRequestBytes
  Internal,     ///< handler failed; the connection stays up
};

[[nodiscard]] std::string_view to_string(ProtocolErrorKind kind) noexcept;

struct Request {
  std::uint64_t id = 0;
  Verb verb = Verb::Ping;
  util::JsonValue params;  ///< the "params" member; Null when absent
};

/// parse_request's result: exactly one of `request` / error fields is
/// meaningful.  `id` echoes the request id whenever it was recoverable
/// from the malformed line, so clients can still match the error.
struct RequestParse {
  std::optional<Request> request;
  ProtocolErrorKind error = ProtocolErrorKind::BadRequest;
  std::string message;
  std::uint64_t id = 0;

  [[nodiscard]] bool ok() const noexcept { return request.has_value(); }
};

/// Parses one request line.  The serve.request.parse fault site models a
/// degraded client byte stream: when it fires the line is treated as torn
/// and a BadRequest error comes back regardless of content.
[[nodiscard]] RequestParse parse_request(std::string_view line);

/// Success envelope, naming `verb` by its wire name; `data_json` must
/// already be serialized JSON.
[[nodiscard]] std::string ok_response(std::uint64_t id, Verb verb, std::uint64_t epoch,
                                      std::string_view data_json);

/// Error envelope.
[[nodiscard]] std::string error_response(std::uint64_t id, ProtocolErrorKind kind,
                                         std::string_view message);

}  // namespace hpcfail::serve
