// Small string utilities used throughout the parsers and log generators.
// Everything operates on std::string_view and never allocates unless it
// returns std::string / std::vector by value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::util {

[[nodiscard]] constexpr bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] constexpr bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

[[nodiscard]] constexpr bool contains(std::string_view s, std::string_view needle) noexcept {
  return s.find(needle) != std::string_view::npos;
}

/// Strips ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits text into non-empty line views on '\n', stripping a trailing
/// '\r' from each line (CRLF corpora parse identically to LF ones).
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view text);

[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s) noexcept;
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept;
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// If `s` starts with `prefix`, returns the remainder; otherwise nullopt.
[[nodiscard]] std::optional<std::string_view> strip_prefix(std::string_view s,
                                                           std::string_view prefix) noexcept;

/// Value of a "key=value" token in a whitespace-separated line; the value
/// ends at the next whitespace.
[[nodiscard]] std::optional<std::string_view> find_kv(std::string_view line,
                                                      std::string_view key) noexcept;

// Appenders write the bytes of one printf conversion straight onto `out`,
// without a temporary string.  The log renderers build every line with
// them; tests/loggen_test.cpp checks each against snprintf.

/// `%lld`.
void append_int(std::string& out, std::int64_t v);

/// `%0*lld`: zero-padded to at least `width` characters, the sign included
/// ("-0042" for -42 at width 5; wider values are never truncated).
void append_padded(std::string& out, std::int64_t v, int width);

/// The raw-buffer kernel of append_padded, for writers that batch many
/// fields into one append: writes `%0*llu` of `v` at `p` and returns the
/// end.  `p` needs room for max(width, digits of v) characters, so at most
/// max(width, 20).
char* put_padded(char* p, std::uint64_t v, int width) noexcept;

/// `%.*f` with `precision` fraction digits (at most 16; more are clamped):
/// exact, ties to even, and "nan"/"inf" with their sign, like glibc's printf.
void append_fixed(std::string& out, double v, int precision);

}  // namespace hpcfail::util
