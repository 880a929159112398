// Unit and property tests for src/loggen: node-list compression, the line
// renderer grammars, corpus/manifest round trips, digest pins of whole
// corpora, and differential checks of every appender against the snprintf
// format it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "loggen/nid_ranges.hpp"
#include "loggen/renderer.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace hpcfail::loggen {
namespace {

// ----------------------------------------------------------- nid ranges ----

/// append_node_list into a fresh string with a fresh scratch bitset.
std::string compress(const std::vector<platform::NodeId>& nodes,
                     platform::NamingScheme naming) {
  std::string out;
  std::vector<std::uint64_t> bits;
  append_node_list(out, nodes, naming, bits);
  return out;
}

TEST(NidRangeTest, CompressKnownForms) {
  using platform::NodeId;
  EXPECT_EQ(compress({NodeId{42}}, platform::NamingScheme::CrayCname), "nid00042");
  EXPECT_EQ(compress({NodeId{1}, NodeId{2}, NodeId{3}}, platform::NamingScheme::CrayCname),
            "nid[00001-00003]");
  EXPECT_EQ(compress({NodeId{7}, NodeId{1}, NodeId{2}, NodeId{7}},
                     platform::NamingScheme::CrayCname),
            "nid[00001-00002,00007]");
  EXPECT_EQ(compress({NodeId{3}}, platform::NamingScheme::Hostname), "node0003");
  EXPECT_EQ(compress({}, platform::NamingScheme::CrayCname), "nid[]");
  EXPECT_EQ(compress({NodeId{9}, NodeId{9}}, platform::NamingScheme::CrayCname), "nid00009");
  EXPECT_EQ(compress({NodeId{63}, NodeId{64}, NodeId{200000}},
                     platform::NamingScheme::CrayCname),
            "nid[00063-00064,200000]");
}

TEST(NidRangeTest, ExpandKnownForms) {
  const auto single = expand_node_list("nid00042");
  ASSERT_TRUE(single.has_value());
  ASSERT_EQ(single->size(), 1u);
  EXPECT_EQ((*single)[0].value, 42u);
  const auto list = expand_node_list("nid[00001-00003,00007]");
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(list->size(), 4u);
  const auto empty = expand_node_list("nid[]");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(NidRangeTest, ExpandRejectsMalformed) {
  for (const char* bad : {"", "xid[001]", "nid[", "nid[1-", "nid[3-1]", "nid[1,,2]",
                          "nid[1-2", "nid[a-b]", "nid[00001-99999999]", "nid4294967296",
                          "nid[1,4294967296]", "nid[4294967295-4294967296]"}) {
    EXPECT_FALSE(expand_node_list(bad).has_value()) << bad;
  }
}

class NidRangeRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NidRangeRoundTrip, RandomSetsRoundTrip) {
  util::Rng rng(GetParam());
  std::set<std::uint32_t> nodes;
  const auto count = rng.uniform_int(1, 200);
  for (std::int64_t i = 0; i < count; ++i) {
    nodes.insert(static_cast<std::uint32_t>(rng.uniform_int(0, 6399)));
  }
  std::vector<platform::NodeId> input;
  for (const auto n : nodes) input.push_back(platform::NodeId{n});
  // Shuffle to prove order independence.
  std::vector<platform::NodeId> shuffled = input;
  rng.shuffle(shuffled);

  const std::string compressed = compress(shuffled, platform::NamingScheme::CrayCname);
  const auto expanded = expand_node_list(compressed);
  ASSERT_TRUE(expanded.has_value()) << compressed;
  ASSERT_EQ(expanded->size(), input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ((*expanded)[i].value, input[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NidRangeRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ------------------------------------------------------------- renderer ----

struct JobLineText {
  util::TimePoint time;
  std::string text;
};

/// Every scheduler-log line of `job`, in emission order.
std::vector<JobLineText> job_lines(LogRenderer& renderer, const jobs::Job& job) {
  std::vector<JobLineText> lines;
  for (std::uint8_t k = 0; k < LogRenderer::kJobLineKinds; ++k) {
    const LogRenderer::JobLine kind{k};
    if (const auto t = LogRenderer::job_line_time(job, kind)) {
      lines.push_back({*t, {}});
      renderer.append_job_line(lines.back().text, job, kind);
    }
  }
  return lines;
}

TEST(RendererTest, ConsoleLineGrammar) {
  const platform::Topology topo(platform::system_preset(platform::SystemName::S1).topology);
  logmodel::SymbolTable symbols;
  const LogRenderer renderer(topo, platform::SchedulerKind::Slurm, symbols);
  logmodel::LogRecord r;
  r.time = util::make_time(2015, 3, 2, 14, 5, 1, 123456);
  r.source = logmodel::LogSource::Console;
  r.type = logmodel::EventType::KernelPanic;
  r.node = platform::NodeId{42};
  r.blade = topo.blade_of(r.node);
  r.job_id = 100001;
  r.detail = symbols.intern("Fatal machine check");
  const std::string line = renderer.render(r);
  EXPECT_TRUE(util::starts_with(line, "2015-03-02T14:05:01.123456 nid00042 "));
  EXPECT_NE(line.find("kernel: Kernel panic - not syncing: Fatal machine check"),
            std::string::npos);
  EXPECT_TRUE(util::ends_with(line, "jobid=100001"));
  EXPECT_NE(line.find(topo.cname_of(r.node).to_string()), std::string::npos);
}

TEST(RendererTest, HostnameSchemeOmitsCname) {
  const platform::Topology topo(platform::system_preset(platform::SystemName::S5).topology);
  logmodel::SymbolTable symbols;
  const LogRenderer renderer(topo, platform::SchedulerKind::Slurm, symbols);
  logmodel::LogRecord r;
  r.time = util::make_time(2015, 3, 2);
  r.source = logmodel::LogSource::Console;
  r.type = logmodel::EventType::OomKill;
  r.node = platform::NodeId{3};
  r.detail = symbols.intern("Out of memory: kill process matlab");
  const std::string line = renderer.render(r);
  EXPECT_NE(line.find(" node0003 kernel: "), std::string::npos);
  EXPECT_EQ(line.find(" c0-"), std::string::npos);
}

TEST(RendererTest, ErdLineCarriesEventAndNode) {
  const platform::Topology topo(platform::system_preset(platform::SystemName::S1).topology);
  logmodel::SymbolTable symbols;
  const LogRenderer renderer(topo, platform::SchedulerKind::Slurm, symbols);
  logmodel::LogRecord r;
  r.time = util::make_time(2015, 3, 2);
  r.source = logmodel::LogSource::Erd;
  r.type = logmodel::EventType::NodeHeartbeatFault;
  r.node = platform::NodeId{7};
  r.blade = topo.blade_of(r.node);
  r.detail = symbols.intern("node heartbeat fault: failed health test");
  const std::string line = renderer.render(r);
  EXPECT_NE(line.find("ev=ec_node_failed"), std::string::npos);
  EXPECT_NE(line.find("node=nid00007"), std::string::npos);
  EXPECT_NE(line.find("src=c0-0c0s1n3"), std::string::npos);
}

TEST(RendererTest, JobLinesContainAllocationAndEnd) {
  const platform::Topology topo(platform::system_preset(platform::SystemName::S1).topology);
  logmodel::SymbolTable symbols;
  LogRenderer renderer(topo, platform::SchedulerKind::Slurm, symbols);
  jobs::Job job;
  job.job_id = 100500;
  job.apid = 1005007;
  job.user = "alice";
  job.app_name = "vasp";
  job.start = util::make_time(2015, 3, 2, 8);
  job.end = util::make_time(2015, 3, 2, 10);
  job.mem_per_node_gb = 28.0;
  job.nodes = {platform::NodeId{0}, platform::NodeId{1}, platform::NodeId{5}};
  job.outcome = jobs::JobOutcome::Completed;
  const auto lines = job_lines(renderer, job);
  ASSERT_EQ(lines.size(), 3u);  // allocate, end, epilogue
  EXPECT_NE(lines[0].text.find("NodeList=nid[00000-00001,00005]"), std::string::npos);
  EXPECT_NE(lines[0].text.find("NodeCnt=3"), std::string::npos);
  EXPECT_NE(lines[1].text.find("ExitCode=0:0"), std::string::npos);
  EXPECT_NE(lines[2].text.find("epilog complete"), std::string::npos);
  EXPECT_EQ(lines[0].time.usec, job.start.usec);
  EXPECT_EQ(lines[1].time.usec, job.end.usec);
}

TEST(RendererTest, TorqueDialect) {
  const platform::Topology topo(platform::system_preset(platform::SystemName::S2).topology);
  logmodel::SymbolTable symbols;
  LogRenderer renderer(topo, platform::SchedulerKind::Torque, symbols);
  jobs::Job job;
  job.job_id = 4242;
  job.user = "bob";
  job.start = util::make_time(2015, 3, 2, 8);
  job.end = job.start + util::Duration::hours(1);
  job.nodes = {platform::NodeId{0}};
  job.outcome = jobs::JobOutcome::UserCancelled;
  const auto lines = job_lines(renderer, job);
  ASSERT_EQ(lines.size(), 4u);  // run, delete, exit, epilogue
  EXPECT_TRUE(util::starts_with(lines[0].text, "03/02/2015 08:00:00;0008;PBS_Server;Job;"
                                               "4242.sdb;Job Run "));
  EXPECT_NE(lines[1].text.find("Job deleted by user bob"), std::string::npos);
  EXPECT_NE(lines[2].text.find("Exit_status=130"), std::string::npos);
  EXPECT_NE(lines[3].text.find("Epilogue complete"), std::string::npos);
}

/// Golden-format lines: the exact raw text per event type.  Guards the
/// grammar against accidental drift — the parsers and any external tooling
/// depend on these byte-for-byte.
TEST(RendererGoldenTest, ExactLines) {
  const platform::Topology topo(platform::system_preset(platform::SystemName::S1).topology);
  logmodel::SymbolTable symbols;
  const LogRenderer renderer(topo, platform::SchedulerKind::Slurm, symbols);
  const util::TimePoint t = util::make_time(2015, 3, 2, 14, 5, 1, 123456);

  auto record = [&topo, &symbols, t](logmodel::LogSource src, logmodel::EventType type,
                                   std::string_view detail, double value = 0.0) {
    logmodel::LogRecord r;
    r.time = t;
    r.source = src;
    r.type = type;
    r.node = platform::NodeId{42};
    r.blade = topo.blade_of(r.node);
    r.cabinet = topo.cabinet_of(r.node);
    r.detail = symbols.intern(detail);
    r.value = value;
    return r;
  };

  using logmodel::EventType;
  using logmodel::LogSource;
  EXPECT_EQ(renderer.render(record(LogSource::Console, EventType::MachineCheckException,
                                   "bank 4")),
            "2015-03-02T14:05:01.123456 nid00042 c0-0c0s10n2 kernel: mce: [Hardware "
            "Error]: Machine check events logged: bank 4");
  EXPECT_EQ(renderer.render(record(LogSource::Console, EventType::CallTrace, "mce_log")),
            "2015-03-02T14:05:01.123456 nid00042 c0-0c0s10n2 kernel:  "
            "[<ffffffff81234567>] mce_log+0x1a2/0x400");
  EXPECT_EQ(renderer.render(record(LogSource::Messages, EventType::NhcTestFail,
                                   "NHC: memory test failed")),
            "Mar  2 14:05:01 nid00042 nhc[2114]: NHC: memory test failed");
  EXPECT_EQ(renderer.render(record(LogSource::Erd, EventType::NodeVoltageFault,
                                   "node voltage fault: VDD out of range")),
            "2015-03-02T14:05:01.123456 erd ev=ec_node_voltage_fault src=c0-0c0s10n2 "
            "node=nid00042 node voltage fault: VDD out of range");
  logmodel::LogRecord reading =
      record(LogSource::Controller, EventType::SedcReading, "CpuTemperature", 40.125);
  EXPECT_EQ(renderer.render(reading),
            "2015-03-02T14:05:01.123456 c0-0c0s10n2 cc: sedc: CpuTemperature value=40.125");
}

// --------------------------------------------------------------- corpus ----

TEST(CorpusTest, ManifestRoundTrip) {
  Corpus corpus;
  corpus.system = platform::system_preset(platform::SystemName::S3);
  corpus.begin = util::make_time(2015, 3, 2);
  corpus.days = 14;
  const std::string manifest = manifest_to_string(corpus);
  const Corpus back = corpus_from_manifest(manifest);
  EXPECT_EQ(back.system.label, "S3");
  EXPECT_EQ(back.system.name, platform::SystemName::S3);
  EXPECT_EQ(back.system.scheduler, platform::SchedulerKind::Slurm);
  EXPECT_EQ(back.system.topology.max_nodes, corpus.system.topology.max_nodes);
  EXPECT_EQ(back.begin.usec, corpus.begin.usec);
  EXPECT_EQ(back.days, 14);
  EXPECT_EQ(platform::Topology(back.system.topology).node_count(), 2100u);
}

TEST(CorpusTest, MalformedManifestThrows) {
  EXPECT_THROW(corpus_from_manifest("no equals sign"), std::runtime_error);
  EXPECT_THROW(corpus_from_manifest("days=abc"), std::runtime_error);
  EXPECT_THROW(corpus_from_manifest("begin=notatime"), std::runtime_error);
}

TEST(CorpusTest, WriteReadDirectoryRoundTrip) {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S4, 2, 404)).run();
  const Corpus corpus = build_corpus(sim);

  const std::string dir = "/tmp/hpcfail_corpus_test";
  std::filesystem::remove_all(dir);
  write_corpus(corpus, dir);
  const Corpus back = read_corpus(dir);

  EXPECT_EQ(back.system.label, corpus.system.label);
  for (std::size_t i = 0; i < corpus.text.size(); ++i) {
    EXPECT_EQ(back.text[i], corpus.text[i]) << "source " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(CorpusTest, ReadMissingDirThrows) {
  EXPECT_THROW(read_corpus("/tmp/hpcfail_no_such_dir_xyz"), std::runtime_error);
}

// -------------------------------------------------------- digest pins ----

/// 64-bit FNV-1a; integers are fed little-endian so the digest does not
/// depend on the host's byte order.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

struct DigestPin {
  const char* name;
  platform::SystemName system;
  int days;
  bool fig11_sensors;  ///< Fig 11's per-blade SEDC readings (`value=%.3f` lines)
  std::array<std::uint64_t, logmodel::kLogSourceCount> text;
  std::size_t chatter_lines;
  std::uint64_t jobs;
};

class CorpusDigestPinned : public ::testing::TestWithParam<DigestPin> {};

/// Every byte of the rendered corpus and every placement of the workload,
/// pinned at seed 42.  Unlike the golden corpus (one S1 cabinet) these
/// cover Torque, hostname naming, multi-cabinet cnames and a nearly full
/// allocator.  A legitimate format change re-pins the literals.
TEST_P(CorpusDigestPinned, MatchesPinnedDigests) {
  const DigestPin& pin = GetParam();
  faultsim::ScenarioConfig scenario = faultsim::scenario_preset(pin.system, pin.days, 42);
  if (pin.fig11_sensors) {
    scenario.sensors.emit_readings = true;
    scenario.sensors.reading_blade_count = 16;
    scenario.sensors.reading_interval_minutes = 10.0;
    scenario.sensors.force_power_off_node = 4;
  }
  const auto sim = faultsim::Simulator(scenario).run();
  const Corpus corpus = build_corpus(sim);

  for (std::size_t s = 0; s < corpus.text.size(); ++s) {
    Fnv1a d;
    d.bytes(corpus.text[s]);
    EXPECT_EQ(d.h, pin.text[s]) << to_string(static_cast<logmodel::LogSource>(s));
  }
  EXPECT_EQ(corpus.chatter_lines, pin.chatter_lines);
  Fnv1a jobs;
  for (const auto& job : sim.jobs) {
    jobs.u64(static_cast<std::uint64_t>(job.job_id));
    jobs.u64(static_cast<std::uint64_t>(job.start.usec));
    jobs.u64(static_cast<std::uint64_t>(job.end.usec));
    jobs.u64(job.nodes.size());
    for (const auto node : job.nodes) jobs.u64(node.value);
    jobs.u64(static_cast<std::uint64_t>(job.outcome));
  }
  EXPECT_EQ(jobs.h, pin.jobs) << sim.jobs.size() << " jobs";
}

INSTANTIATE_TEST_SUITE_P(
    Seed42, CorpusDigestPinned,
    ::testing::Values(
        DigestPin{"S1_2d", platform::SystemName::S1, 2, false,
                  {0x6c1ba32ef0df3dfeULL, 0x7d92003572efbbb3ULL, 0xcbf29ce484222325ULL,
                   0x0602da8d9c806329ULL, 0x116d5212a1ba0b92ULL, 0xd6c51a0c3e85a7f2ULL},
                  2400, 0xba5718afb3e6fff5ULL},
        DigestPin{"S2_2d", platform::SystemName::S2, 2, false,
                  {0xac5a4da222dbca9bULL, 0x316c9c7c3f778f14ULL, 0xcbf29ce484222325ULL,
                   0xac2de611a13eae81ULL, 0xbb84cd95ed10d308ULL, 0x2f5a9382b86d027bULL},
                  2400, 0xa9b2cd7e2d2fb96cULL},
        DigestPin{"S3_2d", platform::SystemName::S3, 2, false,
                  {0x0bb7510b9bfe3c30ULL, 0x9832f2d8f9fbe7d6ULL, 0xcbf29ce484222325ULL,
                   0x2203d23844929edcULL, 0xc44d07978e58a9aaULL, 0xf82b46b7636aa3a2ULL},
                  2400, 0xdbe9252c9b7210f5ULL},
        DigestPin{"S4_2d", platform::SystemName::S4, 2, false,
                  {0x2302745aa4d9c293ULL, 0x476c223e63b31ac4ULL, 0xcbf29ce484222325ULL,
                   0xb91e9427f2140476ULL, 0xb1837c6650215a14ULL, 0x79c9af7fb3a73c58ULL},
                  2400, 0x56ac28fa53a04515ULL},
        DigestPin{"S5_2d", platform::SystemName::S5, 2, false,
                  {0x5c5e5e8ef5aedc80ULL, 0xa3b8f5fc13f15b0cULL, 0xcbf29ce484222325ULL,
                   0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL, 0x1fb8ec8d919ae30dULL},
                  800, 0x50e2f49534885a33ULL},
        DigestPin{"S2_1d_fig11", platform::SystemName::S2, 1, true,
                  {0x6d6a5b9bf47f6b3eULL, 0x1454855ac8b7bc4bULL, 0xcbf29ce484222325ULL,
                   0x78c495a7832df11dULL, 0x4d01aeb678ec1abbULL, 0x3418624c7d657940ULL},
                  1200, 0x24c60c72348b78b6ULL}),
    [](const ::testing::TestParamInfo<DigestPin>& info) { return info.param.name; });

TEST(CorpusTest, LinesAreTimeOrderedPerSource) {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S1, 3, 505)).run();
  const Corpus corpus = build_corpus(sim);
  // ISO-stamped files sort lexically iff time-ordered.
  for (const auto source : {logmodel::LogSource::Console, logmodel::LogSource::Controller,
                            logmodel::LogSource::Erd, logmodel::LogSource::Scheduler}) {
    const auto lines = util::split(corpus.of(source), '\n');
    std::string_view prev;
    for (const auto line : lines) {
      if (line.size() < 26) continue;
      const auto stamp = line.substr(0, 26);
      EXPECT_GE(stamp, prev) << to_string(source);
      prev = stamp;
    }
  }
}

// ---------------------------------------------------- appender sweeps ----
//
// Each appender against the snprintf format it replaced, over seeded
// sweeps plus the edges (widths overflowing their padding, -0.0, exact
// ties, non-finite values, calendar boundaries).

template <typename... Args>
std::string printf_string(const char* format, Args... args) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof buf, format, args...);
  return std::string(buf, static_cast<std::size_t>(n));
}

template <typename Append, typename... Args>
std::string appended(Append append, Args... args) {
  std::string out = "x";  // appenders must append, never overwrite
  append(out, args...);
  return out.substr(1);
}

TEST(AppenderSweep, IntegersMatchPrintf) {
  util::Rng rng(11);
  std::vector<std::int64_t> values = {0,        1,         -1,        9,         10,
                                      99999,    100000,    -100000,   4294967295LL,
                                      INT64_MAX, INT64_MIN, INT64_MIN + 1};
  for (int i = 0; i < 20000; ++i) {
    const int digits = static_cast<int>(rng.uniform_int(0, 17));  // up to 18 digits
    std::int64_t v = rng.uniform_int(0, 9);
    for (int d = 0; d < digits; ++d) v = v * 10 + rng.uniform_int(0, 9);
    values.push_back(rng.bernoulli(0.3) ? -v : v);
  }
  for (const std::int64_t v : values) {
    const auto ll = static_cast<long long>(v);
    EXPECT_EQ(appended(util::append_int, v), printf_string("%lld", ll));
    for (int width = 0; width <= 8; ++width) {
      EXPECT_EQ(appended(util::append_padded, v, width), printf_string("%0*lld", width, ll))
          << v << " width " << width;
    }
  }
}

TEST(AppenderSweep, FixedMatchesPrintf) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.0625,
                                -0.0625,
                                0.0005,
                                0.0015,
                                0.25,
                                40.125,
                                999.9995,
                                1e6,
                                -1e6,
                                1e300,
                                -1.7976931348623157e308,
                                5e-324,
                                std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  util::Rng rng(12);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rng.uniform(-200.0, 200.0));                                // readings
    values.push_back(static_cast<double>(rng.uniform_int(-4000000, 4000000)) / 8192.0);  // ties
    const std::uint64_t bits = rng.next_u64();
    double any = 0.0;
    std::memcpy(&any, &bits, sizeof any);
    values.push_back(any);  // every exponent, subnormals and NaN payloads
  }
  for (const double v : values) {
    EXPECT_EQ(appended(util::append_fixed, v, 3), printf_string("%.3f", v)) << v;
    EXPECT_EQ(appended(util::append_fixed, v, 1), printf_string("%.1f", v)) << v;
  }
}

TEST(AppenderSweep, TimestampsMatchPrintf) {
  static constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                            "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  std::vector<util::TimePoint> times;
  // Last and first microsecond around every month boundary of a leap and
  // a common year, and around a century and the epoch.
  for (const int year : {2015, 2016, 1999, 2000, 1970, 2100}) {
    for (int month = 1; month <= 12; ++month) {
      const util::TimePoint first = util::make_time(year, month, 1);
      times.push_back(first);
      times.push_back(first - util::Duration::microseconds(1));
      times.push_back(first + util::Duration::days(8) + util::Duration::hours(23) +
                      util::Duration::minutes(59) + util::Duration::seconds(59));
    }
  }
  times.push_back(util::make_time(2016, 2, 29, 12, 0, 0, 7));
  times.push_back(util::make_time(9999, 12, 31, 23, 59, 59, 999999));
  times.push_back(util::make_time(10000, 1, 1));  // wider than %04d
  times.push_back(util::make_time(-1, 6, 15));    // negative year
  util::Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    times.push_back(util::TimePoint{rng.uniform_int(0, 4102444800LL * 1'000'000)});
  }
  for (const util::TimePoint t : times) {
    const util::CivilTime c = util::civil_time(t);
    EXPECT_EQ(appended(util::append_iso, t),
              printf_string("%04d-%02d-%02dT%02d:%02d:%02d.%06d", c.year, c.month, c.day,
                            c.hour, c.minute, c.second, c.usec));
    EXPECT_EQ(appended(util::append_syslog, t),
              printf_string("%s %2d %02d:%02d:%02d", kMonths[c.month - 1], c.day, c.hour,
                            c.minute, c.second));
    EXPECT_EQ(appended(util::append_torque, t),
              printf_string("%02d/%02d/%04d %02d:%02d:%02d", c.month, c.day, c.year, c.hour,
                            c.minute, c.second));
  }
}

TEST(AppenderSweep, NamesMatchPrintf) {
  util::Rng rng(14);
  std::vector<std::uint32_t> ids = {0, 7, 9999, 10000, 99999, 100000, 123456, 4294967295U};
  for (int i = 0; i < 20000; ++i) {
    ids.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 4294967295LL) >>
                                             rng.uniform_int(0, 31)));
  }
  for (const std::uint32_t id : ids) {
    EXPECT_EQ(appended(platform::append_nid, id), printf_string("nid%05u", id));
    EXPECT_EQ(appended(platform::append_hostname, id), printf_string("node%04u", id));
  }
  for (int i = 0; i < 20000; ++i) {
    const auto field = [&rng] {
      return static_cast<int>(rng.uniform_int(0, 1 << rng.uniform_int(1, 30)) -
                              (rng.bernoulli(0.05) ? 1000 : 0));
    };
    const platform::Cname c{field(), field(), std::abs(field()), std::abs(field()),
                            std::abs(field())};
    const std::string append_node = appended([&c](std::string& out) { c.append_to(out); });
    EXPECT_EQ(append_node, printf_string("c%d-%dc%ds%dn%d", c.cab_x, c.cab_y, c.chassis,
                                         c.slot, c.node));
    EXPECT_EQ(c.truncated(platform::CnameLevel::Blade).to_string(),
              printf_string("c%d-%dc%ds%d", c.cab_x, c.cab_y, c.chassis, c.slot));
    EXPECT_EQ(c.truncated(platform::CnameLevel::Chassis).to_string(),
              printf_string("c%d-%dc%d", c.cab_x, c.cab_y, c.chassis));
    EXPECT_EQ(c.truncated(platform::CnameLevel::Cabinet).to_string(),
              printf_string("c%d-%d", c.cab_x, c.cab_y));
  }
}

/// compress_node_list as it was before append_node_list: copy, sort,
/// unique, snprintf per range.
std::string sorted_node_list(std::vector<platform::NodeId> nodes,
                             platform::NamingScheme naming) {
  const char* prefix = naming == platform::NamingScheme::CrayCname ? "nid" : "node";
  const int width = naming == platform::NamingScheme::CrayCname ? 5 : 4;
  if (nodes.empty()) return std::string(prefix) + "[]";
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  if (nodes.size() == 1) return printf_string("%s%0*u", prefix, width, nodes[0].value);
  std::string out = std::string(prefix) + '[';
  for (std::size_t i = 0; i < nodes.size();) {
    std::size_t j = i;
    while (j + 1 < nodes.size() && nodes[j + 1].value == nodes[j].value + 1) ++j;
    if (i != 0) out += ',';
    out += j == i ? printf_string("%0*u", width, nodes[i].value)
                  : printf_string("%0*u-%0*u", width, nodes[i].value, width, nodes[j].value);
    i = j + 1;
  }
  return out + ']';
}

TEST(AppenderSweep, NodeListMatchesSortedReference) {
  util::Rng rng(15);
  std::vector<std::uint64_t> bits;  // shared scratch, as in the renderer
  for (int i = 0; i < 4000; ++i) {
    const auto naming =
        rng.bernoulli(0.5) ? platform::NamingScheme::CrayCname : platform::NamingScheme::Hostname;
    const std::uint32_t base = static_cast<std::uint32_t>(
        rng.bernoulli(0.1) ? rng.uniform_int(90000, 200000) : rng.uniform_int(0, 6400));
    const auto span = rng.uniform_int(0, rng.bernoulli(0.5) ? 70 : 3000);
    std::vector<platform::NodeId> nodes;
    const auto count = rng.uniform_int(0, 300);
    for (std::int64_t k = 0; k < count; ++k) {
      if (rng.bernoulli(0.3) && !nodes.empty()) {
        // runs and duplicates
        nodes.push_back(platform::NodeId{nodes.back().value + (rng.bernoulli(0.8) ? 1u : 0u)});
      } else {
        nodes.push_back(
            platform::NodeId{base + static_cast<std::uint32_t>(rng.uniform_int(0, span))});
      }
    }
    std::string out = "x";
    append_node_list(out, nodes, naming, bits);
    EXPECT_EQ(out.substr(1), sorted_node_list(nodes, naming)) << "case " << i;
  }
}

}  // namespace
}  // namespace hpcfail::loggen
