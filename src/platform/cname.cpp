#include "platform/cname.hpp"

#include "util/strings.hpp"

namespace hpcfail::platform {

namespace {

/// Consumes a non-negative decimal integer (max 6 digits) at `pos`.
bool consume_int(std::string_view s, std::size_t& pos, int& out) noexcept {
  std::size_t digits = 0;
  int value = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9' && digits < 6) {
    value = value * 10 + (s[pos] - '0');
    ++pos;
    ++digits;
  }
  if (digits == 0) return false;
  out = value;
  return true;
}

}  // namespace

Cname Cname::truncated(CnameLevel lvl) const noexcept {
  Cname out = *this;
  if (lvl < CnameLevel::Node) out.node = -1;
  if (lvl < CnameLevel::Blade) out.slot = -1;
  if (lvl < CnameLevel::Chassis) out.chassis = -1;
  return out;
}

void Cname::append_to(std::string& out) const {
  out += 'c';
  util::append_int(out, cab_x);
  out += '-';
  util::append_int(out, cab_y);
  const CnameLevel lvl = level();
  if (lvl == CnameLevel::Cabinet) return;
  out += 'c';
  util::append_int(out, chassis);
  if (lvl == CnameLevel::Chassis) return;
  out += 's';
  util::append_int(out, slot);
  if (lvl == CnameLevel::Blade) return;
  out += 'n';
  util::append_int(out, node);
}

std::string Cname::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

std::optional<Cname> parse_cname(std::string_view s) noexcept {
  Cname c;
  std::size_t pos = 0;
  if (pos >= s.size() || s[pos] != 'c') return std::nullopt;
  ++pos;
  if (!consume_int(s, pos, c.cab_x)) return std::nullopt;
  if (pos >= s.size() || s[pos] != '-') return std::nullopt;
  ++pos;
  if (!consume_int(s, pos, c.cab_y)) return std::nullopt;
  if (pos == s.size()) return c;  // cabinet

  if (s[pos] != 'c') return std::nullopt;
  ++pos;
  if (!consume_int(s, pos, c.chassis)) return std::nullopt;
  if (pos == s.size()) return c;  // chassis

  if (s[pos] != 's') return std::nullopt;
  ++pos;
  if (!consume_int(s, pos, c.slot)) return std::nullopt;
  if (pos == s.size()) return c;  // blade

  if (s[pos] != 'n') return std::nullopt;
  ++pos;
  if (!consume_int(s, pos, c.node)) return std::nullopt;
  if (pos != s.size()) return std::nullopt;
  return c;  // node
}

void append_nid(std::string& out, std::uint32_t node_index) {
  out += "nid";
  util::append_padded(out, node_index, 5);
}

std::optional<std::uint32_t> parse_nid(std::string_view s) noexcept {
  if (s.size() < 6 || s.size() > 11 || s.substr(0, 3) != "nid") return std::nullopt;
  std::uint32_t value = 0;
  for (char ch : s.substr(3)) {
    if (ch < '0' || ch > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(ch - '0');
  }
  return value;
}

void append_hostname(std::string& out, std::uint32_t node_index) {
  out += "node";
  util::append_padded(out, node_index, 4);
}

std::optional<std::uint32_t> parse_hostname(std::string_view s) noexcept {
  if (s.size() < 5 || s.size() > 12 || s.substr(0, 4) != "node") return std::nullopt;
  std::uint32_t value = 0;
  for (char ch : s.substr(4)) {
    if (ch < '0' || ch > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(ch - '0');
  }
  return value;
}

}  // namespace hpcfail::platform
