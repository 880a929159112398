#include "util/scan.hpp"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HPCFAIL_SCAN_X86 1
#endif

namespace hpcfail::util::scan {

namespace {

using detail::kOnes;
using detail::load8;
using detail::zero_bytes;

// ---------------------------------------------------------------------------
// count: the AVX2 kernel and its portable twin
// ---------------------------------------------------------------------------

std::size_t count_swar(const char* p, std::size_t n, char c) noexcept {
  const std::uint64_t pat = kOnes * static_cast<unsigned char>(c);
  std::size_t total = 0;
  std::size_t i = 0;
  while (i + 8 <= n) {
    total += static_cast<std::size_t>(std::popcount(zero_bytes(load8(p + i) ^ pat)));
    i += 8;
  }
  for (; i < n; ++i) total += (p[i] == c);
  return total;
}

#ifdef HPCFAIL_SCAN_X86

__attribute__((target("avx2"))) std::size_t count_avx2(const char* p, std::size_t n,
                                                       char c) noexcept {
  const __m256i pat = _mm256_set1_epi8(c);
  std::size_t total = 0;
  std::size_t i = 0;
  while (i + 32 <= n) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    total += static_cast<std::size_t>(std::popcount(
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, pat)))));
    i += 32;
  }
  for (; i < n; ++i) total += (p[i] == c);
  return total;
}

#endif  // HPCFAIL_SCAN_X86

// ---------------------------------------------------------------------------
// Dispatch state
// ---------------------------------------------------------------------------

Isa detect_hw_isa() noexcept {
#ifdef HPCFAIL_SCAN_X86
  if (__builtin_cpu_supports("avx2")) return Isa::Avx2;
#endif
  return Isa::Swar;
}

Isa hw_isa() noexcept {
  static const Isa isa = detect_hw_isa();
  return isa;
}

std::atomic<Isa>& isa_slot() noexcept {
  static std::atomic<Isa> slot{hw_isa()};
  return slot;
}

// Per-signature anchor bytes are picked by rarity: scanning stops at bytes
// that seldom occur in log text, so the candidate-verify path stays cold.
// Rough relative frequencies of bytes in syslog/console corpora (space,
// digits and common lowercase letters dominate); ties break toward the
// earliest byte of the literal.
constexpr auto kByteFreq = [] {
  std::array<std::uint8_t, 256> f{};
  f.fill(1);  // unseen bytes (control chars, high bit) are the rarest
  constexpr std::string_view common = " eationsrlcdu0123456789";
  constexpr std::string_view medium = "mphgbfykvw.:-_=/[]()";
  for (std::size_t i = 0; i < common.size(); ++i)
    f[static_cast<unsigned char>(common[i])] = static_cast<std::uint8_t>(200 - 4 * i);
  for (std::size_t i = 0; i < medium.size(); ++i)
    f[static_cast<unsigned char>(medium[i])] = static_cast<std::uint8_t>(100 - 3 * i);
  for (char c = 'A'; c <= 'Z'; ++c) f[static_cast<unsigned char>(c)] = 12;
  for (std::string_view rare = "jqxzJQXZ#!~^"; const char c : rare)
    f[static_cast<unsigned char>(c)] = 2;
  return f;
}();

}  // namespace

// ---------------------------------------------------------------------------
// Public dispatch
// ---------------------------------------------------------------------------

Isa active_isa() noexcept { return isa_slot().load(std::memory_order_relaxed); }

std::string_view isa_name(Isa isa) noexcept { return isa == Isa::Avx2 ? "avx2" : "swar"; }

Isa force_isa(Isa isa) noexcept {
  if (static_cast<int>(isa) > static_cast<int>(hw_isa())) isa = hw_isa();
  isa_slot().store(isa, std::memory_order_relaxed);
  return isa;
}

// ---------------------------------------------------------------------------
// Byte scanning
// ---------------------------------------------------------------------------

namespace detail {
std::size_t find_byte_long(std::string_view hay, char needle, std::size_t from) noexcept {
  const void* hit = std::memchr(hay.data() + from, needle, hay.size() - from);
  return hit == nullptr ? npos
                        : static_cast<std::size_t>(static_cast<const char*>(hit) - hay.data());
}
}  // namespace detail

std::size_t rfind_byte(std::string_view hay, char needle) noexcept {
  const char* p = hay.data();
  const std::uint64_t pat = kOnes * static_cast<unsigned char>(needle);
  std::size_t i = hay.size();
  while (i >= 8) {
    const std::uint64_t z = zero_bytes(load8(p + i - 8) ^ pat);
    if (z != 0) return i - 8 + ((63u - static_cast<unsigned>(std::countl_zero(z))) >> 3);
    i -= 8;
  }
  while (i > 0) {
    --i;
    if (p[i] == needle) return i;
  }
  return npos;
}

std::size_t count_byte(std::string_view hay, char needle) noexcept {
#ifdef HPCFAIL_SCAN_X86
  if (active_isa() == Isa::Avx2) return count_avx2(hay.data(), hay.size(), needle);
#endif
  return count_swar(hay.data(), hay.size(), needle);
}

namespace ref {

std::size_t find_byte(std::string_view hay, char needle, std::size_t from) noexcept {
  for (std::size_t i = from; i < hay.size(); ++i)
    if (hay[i] == needle) return i;
  return npos;
}

std::size_t rfind_byte(std::string_view hay, char needle) noexcept {
  for (std::size_t i = hay.size(); i > 0; --i)
    if (hay[i - 1] == needle) return i - 1;
  return npos;
}

std::size_t count_byte(std::string_view hay, char needle) noexcept {
  std::size_t total = 0;
  for (const char c : hay) total += (c == needle);
  return total;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// LineCursor
// ---------------------------------------------------------------------------

bool LineCursor::next(std::string_view& line) noexcept {
  while (pos_ < text_.size()) {
    std::size_t end = find_byte(text_, '\n', pos_);
    if (end == npos) end = text_.size();
    std::size_t len = end - pos_;
    if (len > 0 && text_[pos_ + len - 1] == '\r') --len;
    const std::size_t start = pos_;
    pos_ = end + 1;
    if (len > 0) {
      line = text_.substr(start, len);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// SignatureSet
// ---------------------------------------------------------------------------

SignatureSet::SignatureSet(std::span<const Signature> signatures) {
  assert(signatures.size() <= 32);
  count_ = signatures.size();
  for (std::size_t i = 0; i < count_; ++i) {
    const Signature& sig = signatures[i];
    assert(!sig.text.empty() && sig.text.size() <= 255);
    entries_[i].text = sig.text;
    const auto bit = static_cast<std::uint32_t>(1u << i);
    if (sig.prefix_only) {
      prefix_mask_ |= bit;
      continue;
    }
    contains_mask_ |= bit;
    std::size_t anchor = 0;
    for (std::size_t j = 1; j < sig.text.size(); ++j) {
      if (kByteFreq[static_cast<unsigned char>(sig.text[j])] <
          kByteFreq[static_cast<unsigned char>(sig.text[anchor])]) {
        anchor = j;
      }
    }
    const auto key = static_cast<unsigned char>(sig.text[anchor]);
    assert(key < 0x80 && "signature anchors must be ASCII for the nibble tables");
    entries_[i].anchor_offset = static_cast<std::uint8_t>(anchor);
    key_mask_[key] |= bit;
    nibble_lo_[key & 0x0F] |= static_cast<std::uint8_t>(1u << (key >> 4));
  }
  for (unsigned h = 0; h < 8; ++h) nibble_hi_[h] = static_cast<std::uint8_t>(1u << h);
}

std::uint32_t SignatureSet::match_candidates(const char* data, std::size_t n, std::size_t i,
                                             std::uint32_t found) const noexcept {
  std::uint32_t cand = key_mask_[static_cast<unsigned char>(data[i])] & contains_mask_ & ~found;
  while (cand != 0) {
    const int bi = std::countr_zero(cand);
    cand &= cand - 1;
    const Entry& e = entries_[static_cast<std::size_t>(bi)];
    if (i >= e.anchor_offset) {
      const std::size_t start = i - e.anchor_offset;
      if (start + e.text.size() <= n &&
          std::memcmp(data + start, e.text.data(), e.text.size()) == 0) {
        found |= 1u << static_cast<unsigned>(bi);
      }
    }
  }
  return found;
}

#ifdef HPCFAIL_SCAN_X86

namespace detail {

__attribute__((target("avx2"))) std::uint32_t scan_contains_avx2(
    const SignatureSet& set, const char* p, std::size_t n, std::uint32_t found) noexcept {
  const __m256i lo_tab = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(set.nibble_lo_)));
  const __m256i hi_tab = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(set.nibble_hi_)));
  const __m256i low4 = _mm256_set1_epi8(0x0F);
  const std::uint32_t want = set.contains_mask_;
  std::size_t i = 0;
  while (i + 32 <= n && (found & want) != want) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i lo = _mm256_shuffle_epi8(lo_tab, _mm256_and_si256(v, low4));
    const __m256i hi = _mm256_shuffle_epi8(
        hi_tab, _mm256_and_si256(_mm256_srli_epi16(v, 4), low4));
    const __m256i none =
        _mm256_cmpeq_epi8(_mm256_and_si256(lo, hi), _mm256_setzero_si256());
    std::uint32_t hits = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(none));
    while (hits != 0) {
      const std::size_t pos = i + static_cast<std::size_t>(std::countr_zero(hits));
      hits &= hits - 1;
      found = set.match_candidates(p, n, pos, found);
    }
    i += 32;
  }
  // Vector tail: one more (possibly overlapping) block instead of a scalar
  // byte loop — payloads average well under two blocks, so the tail IS the
  // common case.  Hits in the already-scanned overlap are masked off;
  // short inputs go through a zero-padded stack copy, and zero bytes can't
  // light the nibble filter because anchors are printable ASCII.
  if (i < n && (found & want) != want) {
    __m256i v;
    std::uint32_t keep;
    std::size_t base;
    if (n >= 32) {
      base = n - 32;
      v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + base));
      keep = ~0u << (i - base);
    } else {
      alignas(32) char buf[32] = {};
      std::memcpy(buf, p, n);
      base = 0;
      v = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
      keep = (1u << n) - 1u;
    }
    const __m256i lo = _mm256_shuffle_epi8(lo_tab, _mm256_and_si256(v, low4));
    const __m256i hi = _mm256_shuffle_epi8(
        hi_tab, _mm256_and_si256(_mm256_srli_epi16(v, 4), low4));
    const __m256i none =
        _mm256_cmpeq_epi8(_mm256_and_si256(lo, hi), _mm256_setzero_si256());
    std::uint32_t hits = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(none)) & keep;
    while (hits != 0 && (found & want) != want) {
      const std::size_t pos = base + static_cast<std::size_t>(std::countr_zero(hits));
      hits &= hits - 1;
      found = set.match_candidates(p, n, pos, found);
    }
  }
  return found;
}

}  // namespace detail

#endif  // HPCFAIL_SCAN_X86

std::uint32_t SignatureSet::match(std::string_view payload) const noexcept {
  const char* p = payload.data();
  const std::size_t n = payload.size();
  std::uint32_t found = 0;
  std::uint32_t pm = prefix_mask_;
  while (pm != 0) {
    const int bi = std::countr_zero(pm);
    pm &= pm - 1;
    const Entry& e = entries_[static_cast<std::size_t>(bi)];
    if (n >= e.text.size() && std::memcmp(p, e.text.data(), e.text.size()) == 0)
      found |= 1u << static_cast<unsigned>(bi);
  }
  if (contains_mask_ == 0 || n == 0) return found;
#ifdef HPCFAIL_SCAN_X86
  if (active_isa() == Isa::Avx2) return detail::scan_contains_avx2(*this, p, n, found);
#endif
  const std::uint32_t want = contains_mask_;
  for (std::size_t i = 0; i < n && (found & want) != want; ++i) {
    if ((key_mask_[static_cast<unsigned char>(p[i])] & want & ~found) != 0)
      found = match_candidates(p, n, i, found);
  }
  return found;
}

std::uint32_t SignatureSet::match_ref(std::string_view payload) const noexcept {
  std::uint32_t found = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const Entry& e = entries_[i];
    const bool hit = ((prefix_mask_ >> i) & 1u) != 0
                         ? payload.substr(0, e.text.size()) == e.text
                         : payload.find(e.text) != std::string_view::npos;
    if (hit) found |= 1u << static_cast<unsigned>(i);
  }
  return found;
}

}  // namespace hpcfail::util::scan
