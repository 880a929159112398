// Unit and property tests for src/loggen: node-list compression, the line
// renderer grammars, and corpus/manifest round trips.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "loggen/nid_ranges.hpp"
#include "loggen/renderer.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hpcfail::loggen {
namespace {

// ----------------------------------------------------------- nid ranges ----

TEST(NidRangeTest, CompressKnownForms) {
  using platform::NodeId;
  EXPECT_EQ(compress_node_list({NodeId{42}}, platform::NamingScheme::CrayCname), "nid00042");
  EXPECT_EQ(compress_node_list({NodeId{1}, NodeId{2}, NodeId{3}},
                               platform::NamingScheme::CrayCname),
            "nid[00001-00003]");
  EXPECT_EQ(compress_node_list({NodeId{7}, NodeId{1}, NodeId{2}, NodeId{7}},
                               platform::NamingScheme::CrayCname),
            "nid[00001-00002,00007]");
  EXPECT_EQ(compress_node_list({NodeId{3}}, platform::NamingScheme::Hostname), "node0003");
  EXPECT_EQ(compress_node_list({}, platform::NamingScheme::CrayCname), "nid[]");
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

  const std::string compressed =
      compress_node_list(shuffled, platform::NamingScheme::CrayCname);
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
  const LogRenderer renderer(topo, platform::SchedulerKind::Slurm, symbols);
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
  const auto lines = renderer.render_job_lines(job);
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
  const LogRenderer renderer(topo, platform::SchedulerKind::Torque, symbols);
  jobs::Job job;
  job.job_id = 4242;
  job.user = "bob";
  job.start = util::make_time(2015, 3, 2, 8);
  job.end = job.start + util::Duration::hours(1);
  job.nodes = {platform::NodeId{0}};
  job.outcome = jobs::JobOutcome::UserCancelled;
  const auto lines = renderer.render_job_lines(job);
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

}  // namespace
}  // namespace hpcfail::loggen
