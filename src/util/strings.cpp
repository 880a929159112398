#include "util/strings.hpp"

#include <algorithm>
#include <charconv>

#include "util/scan.hpp"

namespace hpcfail::util {

namespace {
inline bool is_ws(char c) noexcept { return scan::is_ws(c); }
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_ws(s[b])) ++b;
  while (e > b && is_ws(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  // Sizing the vector up front from a vectorized newline count keeps the
  // loop free of reallocation; scan::LineCursor preserves the historical
  // semantics (CRLF stripped, empty lines dropped, unterminated tail kept).
  std::vector<std::string_view> lines;
  lines.reserve(scan::count_byte(text, '\n') + 1);
  scan::LineCursor cursor(text);
  std::string_view line;
  while (cursor.next(line)) lines.push_back(line);
  return lines;
}

std::optional<std::int64_t> parse_i64(std::string_view s) noexcept {
  // Fast path: a bare run of <= 18 digits cannot overflow int64 and needs
  // no trim (digits are not whitespace); everything else — signs, spaces,
  // 19+ digits — takes the from_chars path that defines the semantics.
  if (std::uint64_t fast = 0; s.size() <= 18 && scan::parse_u64_digits(s, fast)) {
    return static_cast<std::int64_t>(fast);
  }
  s = trim(s);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) noexcept {
  if (std::uint64_t fast = 0; scan::parse_u64_digits(s, fast)) return fast;
  s = trim(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  double value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<std::string_view> strip_prefix(std::string_view s,
                                             std::string_view prefix) noexcept {
  if (!starts_with(s, prefix)) return std::nullopt;
  return s.substr(prefix.size());
}

std::optional<std::string_view> find_kv(std::string_view line, std::string_view key) noexcept {
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t hit = line.find(key, pos);
    if (hit == std::string_view::npos) return std::nullopt;
    const std::size_t eq = hit + key.size();
    const bool boundary_ok = hit == 0 || is_ws(line[hit - 1]) || line[hit - 1] == ',';
    if (boundary_ok && eq < line.size() && line[eq] == '=') {
      // Values run to the next whitespace; commas stay inside (node lists).
      std::size_t end = eq + 1;
      while (end < line.size() && !is_ws(line[end])) ++end;
      return line.substr(eq + 1, end - eq - 1);
    }
    pos = hit + 1;
  }
  return std::nullopt;
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

char* put_padded(char* p, std::uint64_t v, int width) noexcept {
  char digits[20];
  const auto len = static_cast<int>(std::to_chars(digits, digits + sizeof digits, v).ptr - digits);
  for (int i = len; i < width; ++i) *p++ = '0';
  return std::copy_n(digits, len, p);
}

void append_padded(std::string& out, std::int64_t v, int width) {
  if (v < 0) {
    out += '-';
    --width;  // the sign counts toward the width
  }
  if (width > 20) {
    out.append(static_cast<std::size_t>(width - 20), '0');
    width = 20;
  }
  const std::uint64_t magnitude =
      v < 0 ? 0 - static_cast<std::uint64_t>(v) : static_cast<std::uint64_t>(v);
  char buf[20];
  out.append(buf, static_cast<std::size_t>(put_padded(buf, magnitude, width) - buf));
}

void append_fixed(std::string& out, double v, int precision) {
  // Widest case: 309 integer digits of DBL_MAX, sign, point, fraction.
  char buf[328];
  const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed,
                                 std::min(precision, 16));
  out.append(buf, static_cast<std::size_t>(res.ptr - buf));
}

}  // namespace hpcfail::util
