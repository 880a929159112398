// Scan primitives: the byte-level machinery under the ingest hot path.
//
// Everything the streaming parse does per byte funnels through here —
// newline/delimiter scanning (ChunkedLineReader, split_lines, token
// walks), fixed-width digit-field parsing (ISO/syslog/torque timestamps,
// nid lists) and the single-pass payload signature matcher that replaced
// the sequential contains() cascades in line_classifier.cpp.
//
// Three implementation tiers share one contract:
//   - scalar:  byte-at-a-time reference implementations (scan::ref).
//     Never dispatched in production; retained verbatim as the oracle the
//     differential suite (tests/scan_test.cpp) compares the fast tiers
//     against, byte for byte, on adversarial corpora.
//   - SWAR:    portable 8-bytes-per-step word tricks (no intrinsics).
//     The floor every build ships: selected when the CPU lacks SSE4.2 or
//     when HPCFAIL_NO_SIMD forces it.
//   - SSE/AVX2: 16/32-bytes-per-step x86 paths picked by runtime CPU
//     detection (__builtin_cpu_supports); compiled with target attributes
//     so a generic -O2 build still carries them.
//
// Dispatch policy: active_isa() is resolved once per process from CPUID
// plus the HPCFAIL_NO_SIMD environment variable (set and not "0" ==>
// pure-SWAR fallback, the tier CI re-runs the ingest suites under).
// Tests may pin a tier explicitly with force_isa(); production code never
// does.  All tiers are exact: same results, same out-of-range behaviour,
// no reads past the end of any buffer (the suites run under ASan).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace hpcfail::util::scan {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Implementation tier, ordered weakest to strongest.
enum class Isa : int { Swar = 0, Sse42 = 1, Avx2 = 2 };

/// The tier production calls dispatch to.  Resolved once: HPCFAIL_NO_SIMD
/// (set, not "0") pins Swar; otherwise the strongest tier CPUID reports.
[[nodiscard]] Isa active_isa() noexcept;

[[nodiscard]] std::string_view isa_name(Isa isa) noexcept;

/// Test/bench hook: pin the dispatch tier (clamped to what the CPU
/// supports).  Returns the tier actually installed.
Isa force_isa(Isa isa) noexcept;

// ---------------------------------------------------------------------------
// Byte scanning
// ---------------------------------------------------------------------------

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

namespace detail {

// SWAR building blocks, in the header so the tiny-string fast paths below
// inline into their call sites (token walks call find_byte on 5..15-byte
// views ~20 times per log line; an out-of-line dispatch per call costs
// more than the scan itself).

inline constexpr std::uint64_t kOnes = 0x0101010101010101ull;
inline constexpr std::uint64_t kHighs = 0x8080808080808080ull;

inline std::uint64_t load8(const char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// High bit of byte i set iff byte i of x is zero.  This is the EXACT
/// per-byte variant (mask-then-add, so no cross-byte borrow): the cheaper
/// (x - kOnes) & ~x & kHighs form can flag non-zero bytes above a real
/// zero, which would break rfind and count.
inline std::uint64_t zero_bytes(std::uint64_t x) noexcept {
  return ~(((x & ~kHighs) + ~kHighs) | x) & kHighs;
}

/// High bit of byte i set iff byte i is NOT an ASCII digit.  The add is
/// carry-safe: t is masked to 7 bits per byte first, and 0x7f + 0x76 fits
/// in a byte.
inline std::uint64_t nondigit_bytes(std::uint64_t v) noexcept {
  const std::uint64_t t = v ^ 0x3030303030303030ull;
  const std::uint64_t u = (t & ~kHighs) + 0x7676767676767676ull;
  return (u | t) & kHighs;
}

/// Out-of-line ISA-dispatched scan for haystacks the inline fast path
/// does not cover.  `from < hay.size()` is the caller's invariant.
[[nodiscard]] std::size_t find_byte_long(std::string_view hay, char needle,
                                         std::size_t from) noexcept;

}  // namespace detail

/// Index of the first `needle` at or after `from`, or npos.  Short
/// remainders (<= 16 bytes) scan inline via SWAR; longer ones dispatch to
/// the active SIMD tier.
[[nodiscard]] inline std::size_t find_byte(std::string_view hay, char needle,
                                           std::size_t from = 0) noexcept {
  const std::size_t n = hay.size();
  if (from >= n) return npos;
  if (n - from > 16) return detail::find_byte_long(hay, needle, from);
  const char* p = hay.data();
  const std::uint64_t pat = detail::kOnes * static_cast<unsigned char>(needle);
  std::size_t i = from;
  while (i + 8 <= n) {
    const std::uint64_t z = detail::zero_bytes(detail::load8(p + i) ^ pat);
    if (z != 0) return i + (static_cast<std::size_t>(std::countr_zero(z)) >> 3);
    i += 8;
  }
  for (; i < n; ++i)
    if (p[i] == needle) return i;
  return npos;
}

/// Index of the last `needle` in `hay`, or npos.
[[nodiscard]] std::size_t rfind_byte(std::string_view hay, char needle) noexcept;

/// Number of occurrences of `needle` in `hay`.
[[nodiscard]] std::size_t count_byte(std::string_view hay, char needle) noexcept;

/// Retained scalar reference implementations (the differential oracle).
namespace ref {
[[nodiscard]] std::size_t find_byte(std::string_view hay, char needle,
                                    std::size_t from = 0) noexcept;
[[nodiscard]] std::size_t rfind_byte(std::string_view hay, char needle) noexcept;
[[nodiscard]] std::size_t count_byte(std::string_view hay, char needle) noexcept;
}  // namespace ref

// ---------------------------------------------------------------------------
// Zero-allocation line iteration
// ---------------------------------------------------------------------------

/// Walks the non-empty lines of a text block without allocating: the exact
/// semantics of util::split_lines ('\n' terminators, a trailing '\r'
/// stripped per line, empty lines skipped, final unterminated line kept),
/// one line view at a time.  This replaced the per-chunk
/// std::vector<std::string_view> in the streaming ingest pipeline.
class LineCursor {
 public:
  explicit constexpr LineCursor(std::string_view text) noexcept : text_(text) {}

  /// Advances to the next non-empty line.  Returns false at end of text.
  [[nodiscard]] bool next(std::string_view& line) noexcept;

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Branchless fixed-width digit fields
// ---------------------------------------------------------------------------
//
// The SWAR multiply trick: mask the ASCII digits to their low nibbles,
// then fold neighbouring pairs with three widening multiplies —
// * 2561 (== 10*256 + 1) pairs single digits into two-digit values,
// * 6553601 (== 100*65536 + 1) pairs those into four-digit values,
// * 42949672960001 (== 10000*2^32 + 1) pairs those into an eight-digit
//   value — so an 8-digit field parses in ~5 arithmetic ops with no
// per-digit branches.  Validity (every byte in '0'..'9') is one masked
// compare folded into the return value, not a loop.

/// Parses exactly 2 ASCII digits at `p` (caller guarantees 2 readable
/// bytes).  Writes the value and returns true iff both bytes are digits.
inline bool parse_digits2(const char* p, int& out) noexcept {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  const bool ok = ((v & 0xF0F0u) | (((v + 0x0606u) & 0xF0F0u) >> 4)) == 0x3333u;
  const std::uint16_t d = v & 0x0F0Fu;
  out = static_cast<int>((d & 0xFF) * 10 + (d >> 8));
  return ok;
}

/// Parses exactly 4 ASCII digits at `p` (caller guarantees 4 readable bytes).
inline bool parse_digits4(const char* p, int& out) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  const bool ok =
      ((v & 0xF0F0F0F0u) | (((v + 0x06060606u) & 0xF0F0F0F0u) >> 4)) == 0x33333333u;
  v &= 0x0F0F0F0Fu;
  v = (v * 2561u) >> 8;
  out = static_cast<int>(((v & 0x00FF00FFu) * 6553601u) >> 16);
  return ok;
}

/// Parses exactly 8 ASCII digits at `p` (caller guarantees 8 readable bytes).
inline bool parse_digits8(const char* p, std::uint32_t& out) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  const bool ok = ((v & 0xF0F0F0F0F0F0F0F0ull) |
                   (((v + 0x0606060606060606ull) & 0xF0F0F0F0F0F0F0F0ull) >> 4)) ==
                  0x3333333333333333ull;
  v &= 0x0F0F0F0F0F0F0F0Full;
  v = (v * 2561ull) >> 8;
  v = ((v & 0x00FF00FF00FF00FFull) * 6553601ull) >> 16;
  out = static_cast<std::uint32_t>(((v & 0x0000FFFF0000FFFFull) * 42949672960001ull) >> 32);
  return ok;
}

/// Length of the run of ASCII digits starting at `from`.
[[nodiscard]] inline std::size_t digit_run(std::string_view s, std::size_t from = 0) noexcept {
  const char* p = s.data();
  const std::size_t n = s.size();
  std::size_t i = from;
  while (i + 8 <= n) {
    const std::uint64_t nd = detail::nondigit_bytes(detail::load8(p + i));
    if (nd != 0) return i + (static_cast<std::size_t>(std::countr_zero(nd)) >> 3) - from;
    i += 8;
  }
  while (i < n && p[i] >= '0' && p[i] <= '9') ++i;
  return i - from;
}

/// Fast path for an unsigned decimal field: succeeds iff `s` is 1..19
/// digits with nothing else (no sign, no whitespace, no overflow
/// possible at 19 digits).  Anything it rejects must take the caller's
/// slow path (std::from_chars), which defines the full semantics.
[[nodiscard]] inline bool parse_u64_digits(std::string_view s, std::uint64_t& out) noexcept {
  const std::size_t n = s.size();
  if (n == 0 || n > 19) return false;
  if (digit_run(s) != n) return false;
  std::uint64_t value = 0;
  std::size_t i = 0;
  while (n - i >= 8) {
    std::uint32_t block = 0;
    (void)parse_digits8(s.data() + i, block);
    value = value * 100'000'000u + block;
    i += 8;
  }
  for (; i < n; ++i) value = value * 10 + static_cast<std::uint64_t>(s[i] - '0');
  out = value;
  return true;
}

// ---------------------------------------------------------------------------
// Single-pass signature matching
// ---------------------------------------------------------------------------

/// One classifier signature: a literal to find anywhere in the payload
/// (contains) or only at its start (prefix_only).
struct Signature {
  std::string_view text;
  bool prefix_only = false;
};

class SignatureSet;

namespace detail {
// ISA-specific contains-scan kernels (defined with target attributes in
// scan.cpp); friends of SignatureSet so the nibble/key tables hoist into
// registers once per payload instead of once per 32-byte block.
std::uint32_t scan_contains_avx2(const SignatureSet& set, const char* p, std::size_t n,
                                 std::uint32_t found) noexcept;
std::uint32_t scan_contains_sse(const SignatureSet& set, const char* p, std::size_t n,
                                std::uint32_t found) noexcept;
}  // namespace detail

/// Matches a set of up to 32 literal signatures against a payload in ONE
/// left-to-right pass, returning a bitmask (bit i set iff signatures[i]
/// occurs), instead of one find() pass per signature.
///
/// Each contains-signature is keyed on its rarest byte (by a static log-
/// text frequency table): the scan walks the payload once, and only
/// positions holding some signature's key byte pay a candidate compare,
/// offset back to the signature start.  Prefix signatures are tested once
/// at position 0 before the walk.  The AVX2 tier classifies 32 payload
/// bytes per step into interesting/boring via the nibble-table (pshufb)
/// trick; SWAR falls back to a 256-entry candidate-mask table lookup per
/// byte.  match_ref() is the retained one-find-per-signature oracle.
class SignatureSet {
 public:
  /// `signatures` must outlive the set (use static string literals).
  /// At most 32 entries, each 1..255 bytes, ASCII.
  explicit SignatureSet(std::span<const Signature> signatures);

  /// Bitmask of the signatures occurring in `payload` (single pass).
  [[nodiscard]] std::uint32_t match(std::string_view payload) const noexcept;

  /// Scalar oracle: one contains()/starts_with() per signature.
  [[nodiscard]] std::uint32_t match_ref(std::string_view payload) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  friend std::uint32_t detail::scan_contains_avx2(const SignatureSet&, const char*,
                                                  std::size_t, std::uint32_t) noexcept;
  friend std::uint32_t detail::scan_contains_sse(const SignatureSet&, const char*,
                                                 std::size_t, std::uint32_t) noexcept;

  [[nodiscard]] std::uint32_t match_candidates(const char* data, std::size_t n,
                                               std::size_t i,
                                               std::uint32_t found) const noexcept;

  struct Entry {
    std::string_view text;
    std::uint8_t anchor_offset = 0;  ///< key byte position within the literal
  };

  Entry entries_[32];
  std::size_t count_ = 0;
  std::uint32_t prefix_mask_ = 0;     ///< signatures tested at position 0 only
  std::uint32_t contains_mask_ = 0;   ///< signatures scanned via key bytes
  std::uint32_t key_mask_[256] = {};  ///< byte value -> candidate signatures
  /// pshufb nibble tables: row[lo] & col[hi] != 0 iff some key byte has
  /// that (hi,lo) nibble pair; ASCII-only, so bytes >= 0x80 never match.
  std::uint8_t nibble_lo_[16] = {};
  std::uint8_t nibble_hi_[16] = {};
};

// ---------------------------------------------------------------------------
// Character classes
// ---------------------------------------------------------------------------

/// ASCII whitespace, branch-free (one table load): the class util::trim
/// and find_kv agree on (' ', \t, \n, \v, \f, \r).
inline constexpr auto kWsTable = [] {
  std::array<bool, 256> t{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'})
    t[static_cast<unsigned char>(c)] = true;
  return t;
}();

[[nodiscard]] inline bool is_ws(char c) noexcept {
  return kWsTable[static_cast<unsigned char>(c)];
}

}  // namespace hpcfail::util::scan
