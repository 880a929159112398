// Unit and property tests for src/util: PRNG, time, strings, JSON, tables,
// pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "util/chunked_reader.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace hpcfail::util {
namespace {

// ---------------------------------------------------------------- rng ----

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.next_u64() == b.next_u64();
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += c1.next_u64() == c2.next_u64();
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

class RngUniformIntBounds : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(RngUniformIntBounds, StaysInRange) {
  const auto [lo, hi] = GetParam();
  Rng rng(static_cast<std::uint64_t>(lo * 31 + hi));
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LE(v, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngUniformIntBounds,
                         ::testing::Values(std::pair<std::int64_t, std::int64_t>{0, 0},
                                           std::pair<std::int64_t, std::int64_t>{0, 1},
                                           std::pair<std::int64_t, std::int64_t>{-5, 5},
                                           std::pair<std::int64_t, std::int64_t>{0, 6399},
                                           std::pair<std::int64_t, std::int64_t>{1, 257},
                                           std::pair<std::int64_t, std::int64_t>{-1000000,
                                                                                 1000000}));

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(23);
  for (const double mean : {0.5, 4.0, 80.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, PoissonZeroAndNegative) {
  Rng rng(29);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-3.0), 0);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, WeightedIndexNegativeWeightsIgnored) {
  Rng rng(37);
  const std::vector<double> weights = {-5.0, 1.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted_index(weights), 1u);
  }
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(41);
  const auto sample = rng.sample_indices(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto i : sample) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesClampsK) {
  Rng rng(43);
  EXPECT_EQ(rng.sample_indices(5, 50).size(), 5u);
}

TEST(RngTest, WeibullPositive) {
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.weibull(0.7, 10.0), 0.0);
  }
}

// --------------------------------------------------------------- time ----

TEST(TimeTest, CivilRoundTripEpoch) {
  const CivilTime c = civil_time(TimePoint{0});
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
  EXPECT_EQ(c.hour, 0);
}

class CivilRoundTrip : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CivilRoundTrip, DaysFromCivilInverse) {
  const auto [y, m, d] = GetParam();
  const std::int64_t days = days_from_civil(y, m, d);
  int yy = 0, mm = 0, dd = 0;
  civil_from_days(days, yy, mm, dd);
  EXPECT_EQ(yy, y);
  EXPECT_EQ(mm, m);
  EXPECT_EQ(dd, d);
}

INSTANTIATE_TEST_SUITE_P(
    Dates, CivilRoundTrip,
    ::testing::Values(std::tuple{1970, 1, 1}, std::tuple{2000, 2, 29}, std::tuple{2015, 3, 2},
                      std::tuple{2016, 12, 31}, std::tuple{2100, 2, 28},
                      std::tuple{1969, 12, 31}, std::tuple{2400, 2, 29}));

TEST(TimeTest, FormatParseIsoRoundTrip) {
  const TimePoint t = make_time(2015, 3, 2, 14, 5, 1, 123456);
  const std::string s = format_iso(t);
  EXPECT_EQ(s, "2015-03-02T14:05:01.123456");
  const auto parsed = parse_iso(s);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->usec, t.usec);
}

TEST(TimeTest, ParseIsoVariants) {
  EXPECT_TRUE(parse_iso("2015-03-02T14:05:01").has_value());
  EXPECT_TRUE(parse_iso("2015-03-02T14:05:01.5").has_value());
  EXPECT_TRUE(parse_iso("2015-03-02T14:05:01Z").has_value());
  EXPECT_TRUE(parse_iso("2015-03-02 14:05:01").has_value());
  EXPECT_FALSE(parse_iso("2015-03-02").has_value());
  EXPECT_FALSE(parse_iso("garbage").has_value());
  EXPECT_FALSE(parse_iso("2015-13-02T14:05:01").has_value());
  EXPECT_FALSE(parse_iso("2015-03-02T25:05:01").has_value());
  EXPECT_FALSE(parse_iso("2015-03-02T14:05:01.").has_value());
  EXPECT_FALSE(parse_iso("2015-03-02T14:05:01xyz").has_value());
}

TEST(TimeTest, SyslogRoundTrip) {
  const TimePoint t = make_time(2015, 3, 2, 14, 5, 1);
  std::string s;
  append_syslog(s, t);
  EXPECT_EQ(s, "Mar  2 14:05:01");
  const auto parsed = parse_syslog(s, 2015);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->usec, t.usec);
}

TEST(TimeTest, SyslogTwoDigitDay) {
  const TimePoint t = make_time(2015, 11, 25, 3, 4, 5);
  std::string s;
  append_syslog(s, t);
  EXPECT_EQ(s, "Nov 25 03:04:05");
  const auto parsed = parse_syslog(s, 2015);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->usec, t.usec);
}

TEST(TimeTest, SqlRoundTrip) {
  const TimePoint t = make_time(2016, 6, 30, 23, 59, 59);
  const auto parsed = parse_sql("2016-06-30 23:59:59");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->usec, t.usec);
}

TEST(TimeTest, DayIndexAndHour) {
  const TimePoint t = make_time(1970, 1, 2, 13, 0, 0);
  EXPECT_EQ(t.day_index(), 1);
  EXPECT_EQ(t.hour_of_day(), 13);
  const TimePoint before_epoch = make_time(1969, 12, 31, 23, 0, 0);
  EXPECT_EQ(before_epoch.day_index(), -1);
  EXPECT_EQ(before_epoch.hour_of_day(), 23);
}

TEST(TimeTest, DurationArithmetic) {
  EXPECT_EQ(Duration::minutes(2).to_seconds(), 120.0);
  EXPECT_EQ((Duration::hours(1) + Duration::minutes(30)).to_minutes(), 90.0);
  const TimePoint t{1000000};
  EXPECT_EQ((t + Duration::seconds(2) - t).usec, 2000000);
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(format_duration(Duration::seconds(45)), "45.0 s");
  EXPECT_EQ(format_duration(Duration::minutes(5)), "5.0 min");
  EXPECT_EQ(format_duration(Duration::hours(3)), "3.0 h");
  EXPECT_EQ(format_duration(-Duration::minutes(5)), "-5.0 min");
}

TEST(TimeTest, SyslogYearRollover) {
  // Window starting Dec 2014: December lines stay in 2014, calendar-earlier
  // months roll into 2015.
  const auto dec = parse_syslog("Dec 31 23:59:58", 2014, 12);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(civil_time(*dec).year, 2014);
  const auto jan = parse_syslog("Jan  1 00:00:03", 2014, 12);
  ASSERT_TRUE(jan.has_value());
  EXPECT_EQ(civil_time(*jan).year, 2015);
  EXPECT_LT(dec->usec, jan->usec);
  // A window that never crosses New Year is untouched by the base month.
  const auto mar = parse_syslog("Mar  2 14:05:01", 2015, 2);
  ASSERT_TRUE(mar.has_value());
  EXPECT_EQ(civil_time(*mar).year, 2015);
}

TEST(TimeTest, SyslogYearRolloverLeapDay) {
  // "Feb 29" does not exist in 2015; the plain parse normalizes it to
  // Mar 1 (Hinnant extrapolation), and the Dec-window rollover reparse
  // then recovers the true leap day in 2016.
  const auto leap = parse_syslog("Feb 29 12:00:00", 2015, 12);
  ASSERT_TRUE(leap.has_value());
  const auto c = civil_time(*leap);
  EXPECT_EQ(c.year, 2016);
  EXPECT_EQ(c.month, 2);
  EXPECT_EQ(c.day, 29);
  // Without a crossed New Year the normalized date stands.
  const auto plain = parse_syslog("Feb 29 12:00:00", 2015, 1);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(civil_time(*plain).month, 3);
  EXPECT_EQ(civil_time(*plain).day, 1);
}

// ------------------------------------------------------------ strings ----

TEST(StringsTest, TrimAndSplit) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, ParseNumbers) {
  EXPECT_EQ(parse_i64("  -42 "), -42);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_FALSE(parse_i64("4x").has_value());
  EXPECT_FALSE(parse_i64("").has_value());
  EXPECT_DOUBLE_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_FALSE(parse_double("3.5z").has_value());
}

TEST(StringsTest, FindKv) {
  const std::string_view line = "sched: Allocate JobId=42 NodeList=nid[00001-00003,00007] X=1";
  EXPECT_EQ(find_kv(line, "JobId"), "42");
  EXPECT_EQ(find_kv(line, "NodeList"), "nid[00001-00003,00007]");
  EXPECT_EQ(find_kv(line, "X"), "1");
  EXPECT_FALSE(find_kv(line, "Missing").has_value());
  // Key must sit on a token boundary: "Id" must not match inside "JobId".
  EXPECT_FALSE(find_kv("JobId=42", "Id").has_value());
}

TEST(StringsTest, StripPrefix) {
  EXPECT_EQ(strip_prefix("nid00042", "nid"), "00042");
  EXPECT_FALSE(strip_prefix("node42", "nid").has_value());
}

TEST(StringsTest, SplitLinesDropsEmptyAndHandlesMissingFinalNewline) {
  const auto lines = split_lines("a\n\nbb\nccc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "bb");
  EXPECT_EQ(lines[2], "ccc");
  EXPECT_TRUE(split_lines("").empty());
  EXPECT_TRUE(split_lines("\n\n").empty());
}

TEST(StringsTest, SplitLinesStripsCarriageReturns) {
  // CRLF corpora: the '\r' belongs to the terminator, not the payload.
  const auto lines = split_lines("a\r\nbb\r\n\r\nc\r");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "bb");
  EXPECT_EQ(lines[2], "c");
  // Only a single trailing '\r' is the terminator; interior ones stay.
  const auto inner = split_lines("a\rb\r\n");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0], "a\rb");
}

// ----------------------------------------------------- chunked reader ----

TEST(ChunkedReaderTest, ReassemblesExactlyAndNeverSplitsALine) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "line number " + std::to_string(i) + " with some padding\n";
  }
  for (const std::size_t chunk_bytes : {std::size_t{1}, std::size_t{7},
                                        std::size_t{64}, std::size_t{1} << 20}) {
    std::istringstream in(text);
    ChunkedLineReader reader(in, chunk_bytes);
    std::string reassembled;
    std::string chunk;
    std::size_t chunks = 0;
    while (reader.next(chunk)) {
      ASSERT_FALSE(chunk.empty());
      // Line-boundary invariant: every chunk ends on a terminator.
      ASSERT_EQ(chunk.back(), '\n') << "chunk_bytes=" << chunk_bytes;
      reassembled += chunk;
      ++chunks;
    }
    EXPECT_EQ(reassembled, text) << "chunk_bytes=" << chunk_bytes;
    if (chunk_bytes >= text.size()) {
      EXPECT_EQ(chunks, 1u);
    }
  }
}

TEST(ChunkedReaderTest, MissingFinalNewlineIsDelivered) {
  std::istringstream in("aaa\nbbb\nccc");
  ChunkedLineReader reader(in, 4);
  std::string reassembled;
  std::string chunk;
  while (reader.next(chunk)) reassembled += chunk;
  EXPECT_EQ(reassembled, "aaa\nbbb\nccc");
}

TEST(ChunkedReaderTest, EmptyStreamYieldsNothing) {
  std::istringstream in("");
  ChunkedLineReader reader(in, 1024);
  std::string chunk;
  EXPECT_FALSE(reader.next(chunk));
  EXPECT_FALSE(reader.next(chunk));  // stays done
}

TEST(ChunkedReaderTest, SingleMultiMegabyteLineRefillsInLinearTime) {
  // Regression: the refill loop used to rescan the whole chunk from offset
  // 0 on every iteration looking for a '\n', so one line of L bytes read in
  // C-byte chunks cost O(L²/C).  With L = 8 MB and C = 1 KB that is ~32 GB
  // of rescanning — minutes, not milliseconds.  The refill now remembers
  // how far it has scanned, so this completes quickly; the generous bound
  // only trips if the quadratic rescan comes back.
  const std::string longline(8u << 20, 'x');
  std::istringstream in(longline + "\n");
  ChunkedLineReader reader(in, 1024);
  const auto start = std::chrono::steady_clock::now();
  std::string chunk;
  ASSERT_TRUE(reader.next(chunk));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(chunk.size(), longline.size() + 1);
  EXPECT_EQ(chunk.back(), '\n');
  EXPECT_EQ(chunk.compare(0, longline.size(), longline), 0);
  EXPECT_FALSE(reader.next(chunk));
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 10);
}

TEST(ChunkedReaderTest, LineLongerThanChunkGrowsTheChunk) {
  const std::string longline(10'000, 'x');
  std::istringstream in(longline + "\nshort\n");
  ChunkedLineReader reader(in, 16);
  std::string chunk;
  ASSERT_TRUE(reader.next(chunk));
  // The first chunk must contain the whole long line, unsplit.
  ASSERT_GE(chunk.size(), longline.size() + 1);
  EXPECT_EQ(chunk.substr(0, longline.size()), longline);
  EXPECT_EQ(chunk[longline.size()], '\n');
  std::string reassembled = chunk;
  while (reader.next(chunk)) reassembled += chunk;
  EXPECT_EQ(reassembled, longline + "\nshort\n");
}

// --------------------------------------------------------------- json ----

// Every byte a writer can be handed survives append_json_string ->
// JsonValue::parse, alone and inside text, and no control character
// reaches the output unescaped (a bare one makes the document invalid).
TEST(JsonTest, EveryByteRoundTripsThroughStringEscaping) {
  for (int b = 0x01; b <= 0xFF; ++b) {
    const std::string byte(1, static_cast<char>(b));
    for (const std::string& text : {byte, "pre" + byte + "post"}) {
      std::string json;
      append_json_string(json, text);
      for (const char c : json) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20U) << "byte " << b << ": " << json;
      }
      const std::optional<JsonValue> doc = JsonValue::parse(json);
      ASSERT_TRUE(doc.has_value()) << "byte " << b << ": " << json;
      ASSERT_TRUE(doc->is_string());
      EXPECT_EQ(doc->as_string(), text) << "byte " << b;
    }
  }
}

// -------------------------------------------------------------- table ----

TEST(TableTest, RenderAligned) {
  TextTable t({"a", "bb"});
  t.row().cell("xxx").cell(static_cast<std::int64_t>(7));
  t.row().pct(0.5).cell(1.25, 1);
  const std::string out = t.render();
  EXPECT_NE(out.find("50.00%"), std::string::npos);
  EXPECT_NE(out.find("1.2"), std::string::npos);
  // Column 1 starts at the same offset on every line.
  const auto lines = split(out, '\n');
  ASSERT_GE(lines.size(), 4u);
  const auto header_bb = lines[0].find("bb");
  ASSERT_NE(header_bb, std::string_view::npos);
  EXPECT_EQ(lines[2].find('7'), header_bb);
  EXPECT_EQ(lines[3].find("1.2"), header_bb);
}

// --------------------------------------------------------- thread pool ----

TEST(ThreadPoolTest, ParallelForCoversAllIndexes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, RangesPartitionExactly) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_ranges(777, [&total](std::size_t b, std::size_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 777u);
}

}  // namespace
}  // namespace hpcfail::util
