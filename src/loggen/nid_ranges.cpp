#include "loggen/nid_ranges.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "util/scan.hpp"
#include "util/strings.hpp"

namespace hpcfail::loggen {

namespace {
constexpr int kNidWidth = 5;
constexpr int kHostWidth = 4;
/// NodeId is 32-bit: a larger id is malformed, never silently truncated
/// (nid4294967301 must not become nid 5).
constexpr std::uint64_t kMaxNid = std::numeric_limits<std::uint32_t>::max();
}  // namespace

std::string compress_node_list(std::vector<platform::NodeId> nodes,
                               platform::NamingScheme naming) {
  const char* prefix = naming == platform::NamingScheme::CrayCname ? "nid" : "node";
  const int width = naming == platform::NamingScheme::CrayCname ? kNidWidth : kHostWidth;
  if (nodes.empty()) return std::string(prefix) + "[]";
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  char buf[32];
  if (nodes.size() == 1) {
    std::snprintf(buf, sizeof buf, "%s%0*u", prefix, width, nodes[0].value);
    return buf;
  }
  std::string out = prefix;
  out += '[';
  std::size_t i = 0;
  bool first = true;
  while (i < nodes.size()) {
    std::size_t j = i;
    while (j + 1 < nodes.size() && nodes[j + 1].value == nodes[j].value + 1) ++j;
    if (!first) out += ',';
    first = false;
    if (j == i) {
      std::snprintf(buf, sizeof buf, "%0*u", width, nodes[i].value);
      out += buf;
    } else {
      std::snprintf(buf, sizeof buf, "%0*u-%0*u", width, nodes[i].value, width,
                    nodes[j].value);
      out += buf;
    }
    i = j + 1;
  }
  out += ']';
  return out;
}

std::optional<std::vector<platform::NodeId>> expand_node_list(std::string_view text) noexcept {
  std::string_view rest;
  if (auto r = util::strip_prefix(text, "nid")) {
    rest = *r;
  } else if (auto r2 = util::strip_prefix(text, "node")) {
    rest = *r2;
  } else {
    return std::nullopt;
  }

  std::vector<platform::NodeId> out;
  // Each piece parses ONCE into a (lo, hi) pair — the old exact-pre-count
  // pass re-parsed every range through parse_u64 a second time, which was
  // the single hottest path of the sequential scheduler parse.  The pair
  // list (one entry per comma piece, tiny next to the expansion) still
  // gives an exact reserve: these vectors live for the whole run inside
  // JobInfo, and capacity slack there is real memory.
  const auto parse_piece = [](std::string_view piece, std::uint64_t& lo,
                              std::uint64_t& hi) -> bool {
    const std::size_t dash = piece.find('-');
    if (dash == std::string_view::npos) {
      const auto v = util::parse_u64(piece);
      if (!v || *v > kMaxNid) return false;
      lo = hi = *v;
      return true;
    }
    const auto l = util::parse_u64(piece.substr(0, dash));
    const auto h = util::parse_u64(piece.substr(dash + 1));
    if (!l || !h || *h > kMaxNid || *h < *l || *h - *l > 1'000'000) return false;
    lo = *l;
    hi = *h;
    return true;
  };
  // Bulk resize + indexed iota-style writes: the per-element push_back
  // capacity check defeats vectorization, and ranges contribute most of the
  // expanded nodes.
  const auto fill = [&out](std::uint64_t lo, std::uint64_t hi) {
    const std::size_t base = out.size();
    const std::size_t n = static_cast<std::size_t>(hi - lo + 1);
    out.resize(base + n);
    platform::NodeId* dst = out.data() + base;
    for (std::size_t k = 0; k < n; ++k) {
      dst[k] = platform::NodeId{static_cast<std::uint32_t>(lo + k)};
    }
  };

  if (!rest.empty() && rest.front() == '[') {
    if (rest.back() != ']') return std::nullopt;
    const std::string_view inner = rest.substr(1, rest.size() - 2);
    if (inner.empty()) return out;  // explicit empty list
    if (util::scan::find_byte(inner, '-') == util::scan::npos) {
      // All-singles list (the common shape for scattered allocations):
      // every comma piece contributes exactly one node, so the comma count
      // IS the exact reserve and the pieces staging list is dead weight.
      out.reserve(util::scan::count_byte(inner, ',') + 1);
      std::size_t start = 0;
      for (;;) {
        // Width-5 pieces ("00123") are what compress_node_list emits for
        // cname nids, so nearly every piece hits the branchless
        // parse_digits4 + trailing-digit path; anything else (different
        // width, stray bytes) falls through to the generic parse, which
        // accepts exactly what the fast path would have.
        const std::size_t left = inner.size() - start;
        if (int hi4 = 0; left >= 5 && (left == 5 || inner[start + 5] == ',') &&
                         util::scan::parse_digits4(inner.data() + start, hi4)) {
          const unsigned last = static_cast<unsigned char>(inner[start + 4]) - '0';
          if (last <= 9) {
            out.push_back(
                platform::NodeId{static_cast<std::uint32_t>(hi4) * 10u + last});
            if (left == 5) return out;
            start += 6;
            continue;
          }
        }
        std::size_t comma = util::scan::find_byte(inner, ',', start);
        if (comma == util::scan::npos) comma = inner.size();
        const auto v = util::parse_u64(inner.substr(start, comma - start));
        if (!v || *v > kMaxNid) return std::nullopt;
        out.push_back(platform::NodeId{static_cast<std::uint32_t>(*v)});
        if (comma == inner.size()) break;
        start = comma + 1;
      }
      return out;
    }
    // Branchless 5-digit nid parse for the two piece shapes compress emits:
    // "00123" and "00100-00475".  Anything else drops to the generic parse.
    const auto nid5 = [](const char* p, std::uint64_t& v) -> bool {
      int hi4 = 0;
      if (!util::scan::parse_digits4(p, hi4)) return false;
      const unsigned last = static_cast<unsigned char>(p[4]) - '0';
      if (last > 9) return false;
      v = static_cast<std::uint64_t>(hi4) * 10u + last;
      return true;
    };
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;
    pieces.reserve(util::scan::count_byte(inner, ',') + 1);
    std::size_t total = 0;
    std::size_t start = 0;
    for (;;) {
      std::size_t comma = util::scan::find_byte(inner, ',', start);
      if (comma == util::scan::npos) comma = inner.size();
      std::uint64_t lo = 0, hi = 0;
      const char* p = inner.data() + start;
      const std::size_t len = comma - start;
      if (len == 5 && nid5(p, lo)) {
        hi = lo;
      } else if (len == 11 && p[5] == '-' && nid5(p, lo) && nid5(p + 6, hi)) {
        if (hi < lo) return std::nullopt;
      } else if (!parse_piece(inner.substr(start, len), lo, hi)) {
        return std::nullopt;
      }
      pieces.emplace_back(lo, hi);
      total += static_cast<std::size_t>(hi - lo + 1);
      if (comma == inner.size()) break;
      start = comma + 1;
    }
    out.reserve(total);
    for (const auto& [lo, hi] : pieces) fill(lo, hi);
    return out;
  }
  std::uint64_t lo = 0, hi = 0;
  if (!parse_piece(rest, lo, hi)) return std::nullopt;
  out.reserve(static_cast<std::size_t>(hi - lo + 1));
  fill(lo, hi);
  return out;
}

}  // namespace hpcfail::loggen
