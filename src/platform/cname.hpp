// Cray physical-component name ("cname") grammar.
//
//   cabinet  cX-Y          e.g. c12-3
//   chassis  cX-YcC        e.g. c12-3c2
//   blade    cX-YcCsS      e.g. c12-3c2s7     (a blade == a slot)
//   node     cX-YcCsSnN    e.g. c12-3c2s7n3
//
// X is the cabinet column, Y the cabinet row, C in [0, chassis/cabinet),
// S in [0, slots/chassis), N in [0, nodes/slot).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hpcfail::platform {

enum class CnameLevel { Cabinet, Chassis, Blade, Node };

struct Cname {
  int cab_x = 0;
  int cab_y = 0;
  int chassis = -1;  ///< -1 when level is Cabinet
  int slot = -1;     ///< -1 above Blade level
  int node = -1;     ///< -1 above Node level

  [[nodiscard]] CnameLevel level() const noexcept {
    if (node >= 0) return CnameLevel::Node;
    if (slot >= 0) return CnameLevel::Blade;
    if (chassis >= 0) return CnameLevel::Chassis;
    return CnameLevel::Cabinet;
  }

  /// Drops components below the requested level.
  [[nodiscard]] Cname truncated(CnameLevel lvl) const noexcept;

  /// Appends the cname ("c12-3c2s7n3" at node level) to `out`.
  void append_to(std::string& out) const;
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Cname&) const = default;
};

/// Parses any cname level. Rejects trailing garbage and negative fields.
[[nodiscard]] std::optional<Cname> parse_cname(std::string_view s) noexcept;

/// Formats a dense node index as a Cray nid hostname, e.g. nid00042
/// (`nid%05u`: wider indices keep all their digits).
void append_nid(std::string& out, std::uint32_t node_index);

/// Parses "nid00042" -> 42. Accepts 3..8 digits.
[[nodiscard]] std::optional<std::uint32_t> parse_nid(std::string_view s) noexcept;

/// Institutional-cluster hostname, e.g. node0042 (`node%04u`).
void append_hostname(std::string& out, std::uint32_t node_index);

/// Parses "node0042" -> 42.
[[nodiscard]] std::optional<std::uint32_t> parse_hostname(std::string_view s) noexcept;

}  // namespace hpcfail::platform
