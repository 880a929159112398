#include "serve/protocol.hpp"

#include <algorithm>

#include "util/fault.hpp"

namespace hpcfail::serve {

using util::append_json_number;
using util::append_json_string;
using util::JsonValue;

namespace {

/// One protocol verb: its wire name and the FORMATS.md row text.
struct VerbDef {
  Verb verb;
  std::string_view name;
  std::string_view summary;
};

// The request/response verb table, sorted by name.  FORMATS.md's "serve
// protocol" section documents one row per entry; hpcfail-lint's
// serve-protocol check keeps code and doc in sync in both directions, so a
// verb cannot ship undocumented and the doc cannot promise a verb the
// daemon does not answer.
constexpr VerbDef kVerbs[] = {
    {Verb::Causes, "causes", "root-cause breakdown and layer shares for the analysis window"},
    {Verb::LeadTime, "lead_time", "lead-time summary for the analysis window"},
    {Verb::Metrics, "metrics", "metrics registry export, or null when metrics are dark"},
    {Verb::NodeHealth, "node_health", "online-monitor health for one node (params: node)"},
    {Verb::Ping, "ping", "liveness probe, answers pong"},
    {Verb::Report, "report", "markdown report slice (params: section; omit it to list sections)"},
    {Verb::Shutdown, "shutdown", "answer, then stop the serve loop after this request"},
    {Verb::Status, "status", "store, window and epoch counters for the daemon"},
};

const VerbDef* find_verb(std::string_view name) noexcept {
  const auto* it = std::find_if(std::begin(kVerbs), std::end(kVerbs),
                                [name](const VerbDef& def) { return def.name == name; });
  return it == std::end(kVerbs) ? nullptr : it;
}

std::string_view verb_name(Verb verb) noexcept {
  const auto* it = std::find_if(std::begin(kVerbs), std::end(kVerbs),
                                [verb](const VerbDef& def) { return def.verb == verb; });
  return it == std::end(kVerbs) ? std::string_view{"?"} : it->name;
}

}  // namespace

std::string_view to_string(ProtocolErrorKind kind) noexcept {
  switch (kind) {
    case ProtocolErrorKind::BadRequest: return "bad_request";
    case ProtocolErrorKind::UnknownVerb: return "unknown_verb";
    case ProtocolErrorKind::BadParams: return "bad_params";
    case ProtocolErrorKind::Oversized: return "oversized";
    case ProtocolErrorKind::Internal: return "internal";
  }
  return "?";
}

RequestParse parse_request(std::string_view line) {
  RequestParse out;
  if (line.size() > kMaxRequestBytes) {
    out.error = ProtocolErrorKind::Oversized;
    out.message = "request line of " + std::to_string(line.size()) +
                  " bytes exceeds the " + std::to_string(kMaxRequestBytes) +
                  "-byte limit";
    return out;
  }
  if (HPCFAIL_FAULT_SITE("serve.request.parse")) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "injected parse fault: request bytes torn in flight";
    return out;
  }
  std::optional<JsonValue> doc = JsonValue::parse(line);
  if (!doc.has_value()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "request line is not valid JSON";
    return out;
  }
  if (!doc->is_object()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "request must be a JSON object";
    return out;
  }
  const std::optional<std::uint64_t> id = doc->uint_member("id");
  if (id.has_value()) out.id = *id;
  if (!id.has_value()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "request needs a non-negative integer \"id\"";
    return out;
  }
  const JsonValue* verb = doc->find("verb");
  if (verb == nullptr || !verb->is_string()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "request needs a string \"verb\"";
    return out;
  }
  const VerbDef* def = find_verb(verb->as_string());
  if (def == nullptr) {
    out.error = ProtocolErrorKind::UnknownVerb;
    out.message = "unknown verb \"" + verb->as_string() + "\"";
    return out;
  }
  const JsonValue* params = doc->find("params");
  if (params != nullptr && !params->is_object() && !params->is_null()) {
    out.error = ProtocolErrorKind::BadRequest;
    out.message = "\"params\" must be an object when present";
    return out;
  }
  Request req;
  req.id = *id;
  req.verb = def->verb;
  if (params != nullptr) req.params = *params;
  out.request = std::move(req);
  return out;
}

std::string ok_response(std::uint64_t id, Verb verb, std::uint64_t epoch,
                        std::string_view data_json) {
  std::string out;
  out.reserve(64 + data_json.size());
  out += "{\"id\":";
  append_json_number(out, id);
  out += ",\"ok\":true,\"verb\":";
  append_json_string(out, verb_name(verb));
  out += ",\"epoch\":";
  append_json_number(out, epoch);
  out += ",\"data\":";
  out += data_json;
  out += "}";
  return out;
}

std::string error_response(std::uint64_t id, ProtocolErrorKind kind,
                           std::string_view message) {
  std::string out;
  out.reserve(64 + message.size());
  out += "{\"id\":";
  append_json_number(out, id);
  out += ",\"ok\":false,\"error\":{\"kind\":";
  append_json_string(out, to_string(kind));
  out += ",\"message\":";
  append_json_string(out, message);
  out += "}}";
  return out;
}

}  // namespace hpcfail::serve
