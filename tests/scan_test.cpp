// Differential tests for the scan primitive layer (src/util/scan.hpp):
// every dispatched tier (SWAR, SSE4.2, AVX2 — whatever the host supports)
// must agree byte-for-byte with the retained scalar references on seeded
// randomized corpora stuffed with the nasty cases: CRLF, NUL bytes, empty
// lines, missing trailing newlines, and lines longer than a chunk.  The
// suite runs under ASan/UBSan in CI, so any out-of-bounds vector load
// fails loudly here.
#include <gtest/gtest.h>

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "parsers/line_classifier.hpp"
#include "util/rng.hpp"
#include "util/scan.hpp"
#include "util/strings.hpp"

namespace hpcfail::util::scan {
namespace {

/// Runs `body` once per tier the host can execute, with dispatch pinned to
/// that tier; restores the original tier afterwards.
template <typename Fn>
void for_each_isa(Fn&& body) {
  const Isa original = active_isa();
  for (const Isa isa : {Isa::Swar, Isa::Sse42, Isa::Avx2}) {
    if (force_isa(isa) != isa) continue;  // host can't execute this tier
    body(isa);
  }
  force_isa(original);
}

/// A corpus generator biased toward scanner edge cases.  Deterministic for
/// a seed, so failures reproduce.
std::string random_corpus(Rng& rng, std::size_t target_bytes) {
  std::string out;
  out.reserve(target_bytes + 64);
  while (out.size() < target_bytes) {
    switch (rng.uniform_int(0, 9)) {
      case 0:
        out += '\n';  // empty line
        break;
      case 1:
        out += "\r\n";  // empty CRLF line
        break;
      case 2: {  // line longer than any chunk the tests use
        const auto len = static_cast<std::size_t>(rng.uniform_int(300, 5000));
        for (std::size_t i = 0; i < len; ++i)
          out += static_cast<char>('a' + rng.uniform_int(0, 25));
        out += '\n';
        break;
      }
      case 3: {  // line with embedded NUL and high bytes
        out += "abc";
        out += '\0';
        out += static_cast<char>(0x80 + rng.uniform_int(0, 0x7f));
        out += "def\n";
        break;
      }
      case 4:
        out += "interior\rcarriage return kept\n";
        break;
      default: {  // plain log-ish line, randomly CRLF-terminated
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 90));
        for (std::size_t i = 0; i < len; ++i) {
          const int c = static_cast<int>(rng.uniform_int(32, 126));
          out += static_cast<char>(c);
        }
        out += rng.uniform_int(0, 3) == 0 ? "\r\n" : "\n";
        break;
      }
    }
  }
  if (rng.uniform_int(0, 1) == 0) out += "tail without newline";
  return out;
}

// ------------------------------------------------------- byte scanning ----

TEST(ScanFindByte, MatchesReferenceOnRandomCorpora) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const std::string corpus = random_corpus(rng, 4096);
    for (const char needle : {'\n', '\r', '\0', 'a', ' ', '\x80'}) {
      const std::size_t want = ref::find_byte(corpus, needle);
      const std::size_t want_count = ref::count_byte(corpus, needle);
      const std::size_t want_last = ref::rfind_byte(corpus, needle);
      for_each_isa([&](Isa isa) {
        EXPECT_EQ(find_byte(corpus, needle), want) << isa_name(isa);
        EXPECT_EQ(rfind_byte(corpus, needle), want_last) << isa_name(isa);
        EXPECT_EQ(count_byte(corpus, needle), want_count) << isa_name(isa);
        // Every occurrence, not just the first: walk the chain.
        std::size_t from = 0;
        std::size_t hits = 0;
        while (true) {
          const std::size_t got = find_byte(corpus, needle, from);
          ASSERT_EQ(got, ref::find_byte(corpus, needle, from)) << isa_name(isa);
          if (got == npos) break;
          ++hits;
          from = got + 1;
        }
        EXPECT_EQ(hits, want_count) << isa_name(isa);
      });
    }
  }
}

TEST(ScanFindByte, EdgeLengthsAndOffsets) {
  // Lengths straddling every SIMD width boundary, needle at every position.
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{8}, std::size_t{15}, std::size_t{16},
                                std::size_t{17}, std::size_t{31}, std::size_t{32},
                                std::size_t{33}, std::size_t{63}, std::size_t{64},
                                std::size_t{65}}) {
    std::string s(len, 'x');
    for_each_isa([&](Isa isa) {
      EXPECT_EQ(find_byte(s, 'y'), npos) << isa_name(isa) << " len=" << len;
      EXPECT_EQ(rfind_byte(s, 'y'), npos) << isa_name(isa) << " len=" << len;
      EXPECT_EQ(count_byte(s, 'x'), len) << isa_name(isa) << " len=" << len;
    });
    for (std::size_t pos = 0; pos < len; ++pos) {
      std::string t = s;
      t[pos] = 'y';
      for_each_isa([&](Isa isa) {
        EXPECT_EQ(find_byte(t, 'y'), pos) << isa_name(isa) << " len=" << len;
        EXPECT_EQ(rfind_byte(t, 'y'), pos) << isa_name(isa) << " len=" << len;
        for (std::size_t from = 0; from <= len; ++from)
          ASSERT_EQ(find_byte(t, 'y', from), ref::find_byte(t, 'y', from))
              << isa_name(isa) << " len=" << len << " from=" << from;
      });
    }
  }
}

TEST(ScanFindByte, FromPastEndIsNpos) {
  for_each_isa([&](Isa) {
    EXPECT_EQ(find_byte("abc", 'a', 3), npos);
    EXPECT_EQ(find_byte("abc", 'a', 99), npos);
    EXPECT_EQ(find_byte("", 'a'), npos);
    EXPECT_EQ(rfind_byte("", 'a'), npos);
    EXPECT_EQ(count_byte("", 'a'), 0u);
  });
}

// ---------------------------------------------------------- LineCursor ----

TEST(LineCursor, MatchesSplitLinesOnRandomCorpora) {
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    const std::string corpus = random_corpus(rng, 2048);
    const auto want = split_lines(corpus);
    for_each_isa([&](Isa isa) {
      std::vector<std::string_view> got;
      LineCursor cursor(corpus);
      std::string_view line;
      while (cursor.next(line)) got.push_back(line);
      ASSERT_EQ(got.size(), want.size()) << isa_name(isa) << " round=" << round;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << isa_name(isa) << " round=" << round;
        // Zero-copy: the views must alias the corpus, not a copy.
        ASSERT_GE(got[i].data(), corpus.data());
        ASSERT_LE(got[i].data() + got[i].size(), corpus.data() + corpus.size());
      }
    });
  }
}

TEST(LineCursor, HandPickedEdgeCases) {
  const struct {
    std::string_view text;
    std::vector<std::string_view> lines;
  } cases[] = {
      {"", {}},
      {"\n\n\r\n", {}},
      {"a", {"a"}},
      {"a\r", {"a"}},
      {"a\r\nb\nc", {"a", "b", "c"}},
      {"a\rb\n", {"a\rb"}},
      {std::string_view("a\0b\nc", 5), {std::string_view("a\0b", 3), "c"}},
  };
  for (const auto& c : cases) {
    std::vector<std::string_view> got;
    LineCursor cursor(c.text);
    std::string_view line;
    while (cursor.next(line)) got.push_back(line);
    EXPECT_EQ(got, c.lines);
  }
}

// -------------------------------------------------------- digit fields ----

TEST(ScanDigits, FixedWidthAgainstScalar) {
  Rng rng(11);
  const auto scalar_parse = [](const char* p, std::size_t len, std::uint64_t& out) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < len; ++i) {
      if (p[i] < '0' || p[i] > '9') return false;
      v = v * 10 + static_cast<std::uint64_t>(p[i] - '0');
    }
    out = v;
    return true;
  };
  for (int round = 0; round < 5000; ++round) {
    char buf[8];
    for (char& c : buf) {
      // Mostly digits, sometimes near-miss bytes ('/' and ':' bracket '0'-'9').
      const int r = static_cast<int>(rng.uniform_int(0, 12));
      c = r <= 9 ? static_cast<char>('0' + r) : (r == 10 ? '/' : (r == 11 ? ':' : 'x'));
    }
    std::uint64_t want = 0;
    int got2 = -1, got4 = -1;
    std::uint32_t got8 = 0;
    EXPECT_EQ(parse_digits2(buf, got2), scalar_parse(buf, 2, want));
    if (scalar_parse(buf, 2, want)) {
      EXPECT_EQ(static_cast<std::uint64_t>(got2), want);
    }
    EXPECT_EQ(parse_digits4(buf, got4), scalar_parse(buf, 4, want));
    if (scalar_parse(buf, 4, want)) {
      EXPECT_EQ(static_cast<std::uint64_t>(got4), want);
    }
    EXPECT_EQ(parse_digits8(buf, got8), scalar_parse(buf, 8, want));
    if (scalar_parse(buf, 8, want)) {
      EXPECT_EQ(static_cast<std::uint64_t>(got8), want);
    }
  }
}

TEST(ScanDigits, DigitRun) {
  EXPECT_EQ(digit_run(""), 0u);
  EXPECT_EQ(digit_run("abc"), 0u);
  EXPECT_EQ(digit_run("123abc"), 3u);
  EXPECT_EQ(digit_run("12345678901234567890x"), 20u);
  EXPECT_EQ(digit_run("ab123", 2), 3u);
  EXPECT_EQ(digit_run("1/2:3"), 1u);
  const std::string long_digits(1000, '7');
  EXPECT_EQ(digit_run(long_digits), 1000u);
  EXPECT_EQ(digit_run(long_digits + "\x80"), 1000u);
}

TEST(ScanDigits, ParseU64AgreesWithFromChars) {
  const auto from_chars_ref = [](std::string_view s) -> std::optional<std::uint64_t> {
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    return v;
  };
  Rng rng(13);
  for (int round = 0; round < 20000; ++round) {
    std::string s;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 24));
    for (std::size_t i = 0; i < len; ++i) {
      const int r = static_cast<int>(rng.uniform_int(0, 11));
      s += r <= 9 ? static_cast<char>('0' + r) : (r == 10 ? ' ' : '-');
    }
    std::uint64_t got = 0;
    if (parse_u64_digits(s, got)) {
      // The fast path may only accept what from_chars accepts, with the
      // same value.
      const auto want = from_chars_ref(s);
      ASSERT_TRUE(want.has_value()) << '"' << s << '"';
      ASSERT_EQ(got, *want) << '"' << s << '"';
    }
  }
  // It must accept the full clean-digit range it claims (1..19 digits).
  std::uint64_t v = 0;
  ASSERT_TRUE(parse_u64_digits("0", v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(parse_u64_digits("9999999999999999999", v));
  EXPECT_EQ(v, 9999999999999999999ull);
  EXPECT_FALSE(parse_u64_digits("", v));
  EXPECT_FALSE(parse_u64_digits("12345678901234567890", v));  // 20 digits: slow path
  EXPECT_FALSE(parse_u64_digits(" 1", v));
  EXPECT_FALSE(parse_u64_digits("+1", v));
}

// -------------------------------------------------------- SignatureSet ----

constexpr Signature kTestSignatures[] = {
    {"Kernel panic - not syncing", false},
    {"LustreError", false},
    {"Machine check", false},
    {"EDAC", false},
    {"segfault at", false},
    {"Out of memory", false},
    {"HEST:", true},
    {"DVS:", true},
    {"ec_sedc_warning", false},
    {"x", false},  // single-byte signature
};

std::string random_payload(Rng& rng) {
  std::string out;
  const auto pieces = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t i = 0; i < pieces; ++i) {
    switch (rng.uniform_int(0, 5)) {
      case 0: {  // a whole signature
        const auto& sig =
            kTestSignatures[rng.uniform_int(0, std::ssize(kTestSignatures) - 1)];
        out += sig.text;
        break;
      }
      case 1: {  // a truncated signature (near-miss)
        const auto& sig =
            kTestSignatures[rng.uniform_int(0, std::ssize(kTestSignatures) - 1)];
        out += sig.text.substr(0, sig.text.size() - 1);
        break;
      }
      case 2:
        out += '\0';
        out += static_cast<char>(0x80 + rng.uniform_int(0, 0x7f));
        break;
      default: {
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 40));
        for (std::size_t j = 0; j < len; ++j)
          out += static_cast<char>(rng.uniform_int(32, 126));
        break;
      }
    }
    out += ' ';
  }
  return out;
}

TEST(SignatureSet, MatchesReferenceOnRandomPayloads) {
  const SignatureSet set{kTestSignatures};
  ASSERT_EQ(set.size(), std::size(kTestSignatures));
  Rng rng(17);
  for (int round = 0; round < 20000; ++round) {
    const std::string payload = random_payload(rng);
    const std::uint32_t want = set.match_ref(payload);
    for_each_isa([&](Isa isa) {
      ASSERT_EQ(set.match(payload), want)
          << isa_name(isa) << " payload=\"" << payload << '"';
    });
  }
}

TEST(SignatureSet, PrefixSignaturesOnlyMatchAtStart) {
  const SignatureSet set{kTestSignatures};
  for_each_isa([&](Isa) {
    EXPECT_NE(set.match("HEST: something") & (1u << 6), 0u);
    EXPECT_EQ(set.match("prefix HEST: not at start") & (1u << 6), 0u);
    EXPECT_NE(set.match("prefix HEST: not at start"), 0u);  // 'x' contains-sig hits
  });
}

TEST(SignatureSet, EmptyAndBoundaryPayloads) {
  const SignatureSet set{kTestSignatures};
  for_each_isa([&](Isa) {
    EXPECT_EQ(set.match(""), set.match_ref(""));
    EXPECT_EQ(set.match("E"), set.match_ref("E"));
    EXPECT_EQ(set.match("EDAC"), set.match_ref("EDAC"));
    // Signature ending exactly at a 32-byte block boundary.
    std::string s(32 - 4, ' ');
    s += "EDAC";
    EXPECT_EQ(set.match(s), set.match_ref(s));
    // Signature straddling the boundary.
    std::string t(30, ' ');
    t += "EDAC";
    EXPECT_EQ(set.match(t), set.match_ref(t));
  });
}

// ------------------------------------------- production classifiers -------

/// Fragments biased toward the real classifier cascades, including near
/// misses, overlap cases (LBUG inside LustreError lines) and validation
/// fall-throughs (">] " frames without a '+').
std::string random_classifier_payload(Rng& rng) {
  static constexpr std::string_view kFragments[] = {
      "Kernel panic - not syncing: Fatal exception",
      "LustreError: 11-0: lustre-OST0001",
      "ASSERTION failed: LBUG",
      "Machine check events logged: bank 5",
      "EDAC MC0: CE row 2",
      "rcu_sched self-detected stall on CPU: 3",
      "HEST: Table parsing disabled",
      "[Firmware Bug]: cpu 4",
      "segfault at 7f3b err 4: in libc",
      "page allocation failure, mode:0x4020",
      "Out of memory: Kill process 1234 score 887",
      "task kworker blocked for more than 120 seconds:",
      "BUG: unable to handle kernel paging request",
      " [<ffffffff81234567>] bad_module+0x1a2/0x400",
      " [<ffffffff81234567>] no_plus_frame ",
      "DVS: file system failure",
      "bad inode: 12345",
      "link error detected: port 3",
      "Shutdown: system going down: halt",
      "System halted",
      "Booting Linux on physical CPU 0x0: rev 4",
      "health check abnormal exit",
      "node in suspect mode",
      "NHC: check_fs failed",
      "ec_sedc_warning CPU_TEMP high",
      "ec_sedc_warning VDD out of range",
      "ec_sedc_warning AIR_VEL low",
      "ec_sedc_warning unspecified channel",
      "ec_environment fan speed",
      "sedc: cabinet c0-0 reading",
      "L0_sysd_mce: bank 2",
      "cabinet power fault",
      "micro controller fault",
      "communication fault on blade",
      "module health fault",
      "RPM fault fan 3",
      "ECB fault",
      "sensor check failed",
      "get sensor reading failed",
      "bc heartbeat fault",
      "Kernel panic - not",  // truncations / near misses from here down
      "LustreErro",
      "EDA-C",
      "HEST",
      "ec_sedc_warnin",
  };
  std::string out;
  const auto pieces = static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t i = 0; i < pieces; ++i) {
    if (rng.uniform_int(0, 2) == 0) {
      const auto len = static_cast<std::size_t>(rng.uniform_int(0, 30));
      for (std::size_t j = 0; j < len; ++j)
        out += static_cast<char>(rng.uniform_int(32, 126));
    } else {
      out += kFragments[rng.uniform_int(0, std::ssize(kFragments) - 1)];
    }
    out += ' ';
  }
  return out;
}

TEST(ClassifierDifferential, AllCascadesMatchScalarReferenceOnEveryIsa) {
  using parsers::Classified;
  const auto same = [](const std::optional<Classified>& a,
                       const std::optional<Classified>& b) {
    if (a.has_value() != b.has_value()) return false;
    if (!a.has_value()) return true;
    return a->type == b->type && a->severity == b->severity && a->detail == b->detail;
  };
  Rng rng(23);
  for (int round = 0; round < 30000; ++round) {
    const std::string payload = random_classifier_payload(rng);
    const auto kernel_want = parsers::classify_kernel_payload_ref(payload);
    const auto nhc_want = parsers::classify_nhc_payload_ref(payload);
    const auto ctrl_want = parsers::classify_controller_payload_ref(payload);
    for_each_isa([&](Isa isa) {
      ASSERT_TRUE(same(parsers::classify_kernel_payload(payload), kernel_want))
          << isa_name(isa) << " payload=\"" << payload << '"';
      ASSERT_TRUE(same(parsers::classify_nhc_payload(payload), nhc_want))
          << isa_name(isa) << " payload=\"" << payload << '"';
      ASSERT_TRUE(same(parsers::classify_controller_payload(payload), ctrl_want))
          << isa_name(isa) << " payload=\"" << payload << '"';
    });
  }
}

// ------------------------------------------------------------ dispatch ----

TEST(ScanDispatch, IsaNamesAndForceRoundTrip) {
  EXPECT_EQ(isa_name(Isa::Swar), "swar");
  EXPECT_EQ(isa_name(Isa::Sse42), "sse4.2");
  EXPECT_EQ(isa_name(Isa::Avx2), "avx2");
  const Isa original = active_isa();
  EXPECT_EQ(force_isa(Isa::Swar), Isa::Swar);  // always executable
  EXPECT_EQ(active_isa(), Isa::Swar);
  force_isa(original);
  EXPECT_EQ(active_isa(), original);
}

TEST(ScanCharClasses, Whitespace) {
  for (int c = 0; c < 256; ++c) {
    const char ch = static_cast<char>(c);
    const bool want_ws =
        ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' || ch == '\f' || ch == '\v';
    EXPECT_EQ(is_ws(ch), want_ws) << c;
  }
}

}  // namespace
}  // namespace hpcfail::util::scan
