// The repo's one JSON layer: everything hpcfail writes for a machine to
// read goes through it — serve responses (FORMATS.md "serve protocol"),
// the metrics and chrome-trace exports (util/metrics.hpp, util/trace.hpp)
// and hpcfail-lint's SARIF — and the tests parse those outputs back with
// the same strict parser the daemon uses on requests.  Scope is
// deliberately small: parse one document into a JsonValue tree, and
// append deterministically formatted values to an output string.  Writers
// assemble their documents key by key (each format fixes its key order),
// so there is no generic serializer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hpcfail::util {

/// A parsed JSON value.  Objects preserve member order (documents are
/// small; lookup is a linear scan) and duplicate keys keep the first
/// occurrence, so a request cannot smuggle two different "verb" members
/// past a check.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::Object; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept { return items_; }
  [[nodiscard]] const std::vector<Member>& members() const noexcept { return members_; }

  /// First member named `key`, or nullptr.  Valid only on objects (an
  /// empty member list answers nullptr for every other kind).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// The member as a non-negative integer that survives a double round
  /// trip (request ids); nullopt when absent, mistyped or out of range.
  [[nodiscard]] std::optional<std::uint64_t> uint_member(std::string_view key) const;

  /// Parses one complete JSON document.  Trailing garbage, unterminated
  /// strings, bad escapes, bare control characters and nesting deeper
  /// than 32 levels all yield nullopt.
  [[nodiscard]] static std::optional<JsonValue> parse(std::string_view text);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Appends `s` as a quoted JSON string, escaping `"` `\` and every control
/// character (the short forms \b \f \n \r \t, the rest as \u00XX); bytes
/// 0x20 and up pass through, so UTF-8 text stays as it is.
/// Deterministic byte-for-byte.
void append_json_string(std::string& out, std::string_view s);

/// Appends a number: integral values in [-2^53, 2^53] as plain integers,
/// non-finite values as null (JSON has no Inf/NaN), everything else via
/// "%.6g" — compact, deterministic, and precise enough for the ratios,
/// bucket bounds and sums the exports carry.
void append_json_number(std::string& out, double v);
void append_json_number(std::string& out, std::uint64_t v);
void append_json_number(std::string& out, std::int64_t v);

}  // namespace hpcfail::util
