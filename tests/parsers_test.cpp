// Unit and property tests for src/parsers: line classifiers, per-source
// parsers, scheduler parsing, and parser totality under mutation (fuzz).
#include <gtest/gtest.h>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "parsers/line_classifier.hpp"
#include "parsers/source_parsers.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hpcfail::parsers {
namespace {

using logmodel::EventType;

platform::Topology s1_topology() {
  return platform::Topology(platform::system_preset(platform::SystemName::S1).topology);
}

// ------------------------------------------------------------ classifier ----

struct ClassifyCase {
  const char* payload;
  EventType expected;
};

class KernelClassify : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(KernelClassify, MapsToExpectedType) {
  const auto result = classify_kernel_payload(GetParam().payload);
  ASSERT_TRUE(result.has_value()) << GetParam().payload;
  EXPECT_EQ(result->type, GetParam().expected) << GetParam().payload;
}

INSTANTIATE_TEST_SUITE_P(
    Signatures, KernelClassify,
    ::testing::Values(
        ClassifyCase{"Kernel panic - not syncing: Fatal machine check",
                     EventType::KernelPanic},
        // LBUG must win over the generic LustreError signature.
        ClassifyCase{"LustreError: LBUG - ASSERTION failed: race", EventType::LustreBug},
        ClassifyCase{"LustreError: 11-0: ost_write failed", EventType::LustreError},
        // Processor-context-corrupt must win over plain MCE.
        ClassifyCase{"mce: [Hardware Error]: PCC processor context corrupt: x",
                     EventType::CpuCorruption},
        ClassifyCase{"mce: [Hardware Error]: Machine check events logged: bank 4",
                     EventType::MachineCheckException},
        ClassifyCase{"EDAC MC0: correctable error", EventType::HardwareError},
        ClassifyCase{"INFO: rcu_sched self-detected stall on CPU: 3", EventType::CpuStall},
        ClassifyCase{"HEST: type:2; severity:80; class:3; subclass:D; operation:2",
                     EventType::BiosError},
        ClassifyCase{"[Firmware Bug]: cpu offline map", EventType::FirmwareBug},
        ClassifyCase{"app[31337]: segfault at 0 ip 00007f err 4: binary",
                     EventType::SegFault},
        ClassifyCase{"invalid opcode: 0000 [#1] SMP: devcode", EventType::InvalidOpcode},
        ClassifyCase{"wrf: page allocation failure: order:4, mode:0x4020",
                     EventType::PageAllocationFailure},
        ClassifyCase{"Out of memory: kill process 99 (vasp) score 987 or sacrifice child",
                     EventType::OomKill},
        ClassifyCase{"INFO: task blocked for more than 120 seconds: io",
                     EventType::HungTaskTimeout},
        ClassifyCase{"BUG: unable to handle kernel paging request at 00000000deadbeef",
                     EventType::KernelOops},
        ClassifyCase{" [<ffffffff81234567>] dvs_ipc_mesg+0x1a2/0x400", EventType::CallTrace},
        ClassifyCase{"DVS: file system request timed out", EventType::DvsError},
        ClassifyCase{"hsn: link error detected: lane 3", EventType::InterconnectError},
        ClassifyCase{"Shutdown: system going down: anomalous shutdown",
                     EventType::NodeShutdown},
        ClassifyCase{"System halted: node set to admindown", EventType::NodeHalt},
        ClassifyCase{"Booting Linux on physical CPU 0x0: rebooted", EventType::NodeBoot}));

TEST(ClassifierTest, IrrelevantChatterIsSkipped) {
  EXPECT_FALSE(classify_kernel_payload("systemd[1]: Started Session 1 of user root"));
  EXPECT_FALSE(classify_kernel_payload(""));
  EXPECT_FALSE(classify_kernel_payload("eth0: link up"));
}

TEST(ClassifierTest, CallTraceModuleExtraction) {
  EXPECT_EQ(call_trace_module(" [<ffffffff81234567>] mce_log+0x1a2/0x400"), "mce_log");
  EXPECT_FALSE(call_trace_module("no trace here").has_value());
  EXPECT_FALSE(call_trace_module(" [<ffffffff81234567>] +0x1/0x2").has_value());
}

TEST(ClassifierTest, NhcPayloads) {
  EXPECT_EQ(classify_nhc_payload("abnormal exit of application vasp jobid=1")->type,
            EventType::AppExitAbnormal);
  EXPECT_EQ(classify_nhc_payload("NHC: node placed in suspect mode")->type,
            EventType::NhcSuspectMode);
  EXPECT_EQ(classify_nhc_payload("NHC: application exit test failed")->type,
            EventType::NhcTestFail);
  EXPECT_FALSE(classify_nhc_payload("ordinary message").has_value());
}

TEST(ClassifierTest, ControllerPayloads) {
  EXPECT_EQ(classify_controller_payload("ec_sedc_warning: CPU_TEMP reading 71.2 outside")
                ->type,
            EventType::SedcTemperatureWarning);
  EXPECT_EQ(classify_controller_payload("ec_sedc_warning: VDD reading 11.1 below minimum")
                ->type,
            EventType::SedcVoltageWarning);
  EXPECT_EQ(classify_controller_payload("cabinet sensor check failed")->type,
            EventType::CabinetSensorCheck);
  EXPECT_EQ(classify_controller_payload("get sensor reading failed")->type,
            EventType::GetSensorReadingFailed);
  EXPECT_EQ(classify_controller_payload("L0_sysd_mce: memory error")->type,
            EventType::L0SysdMce);
  EXPECT_FALSE(classify_controller_payload("hello world").has_value());
}

// --------------------------------------------------------- line parsers ----

TEST(ConsoleParserTest, ParsesFullLine) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2015};
  const auto r = parse_console_line(
      "2015-03-02T14:05:01.123456 nid00042 c0-0c0s10n2 kernel: "
      "Kernel panic - not syncing: Fatal exception jobid=100007",
      ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, EventType::KernelPanic);
  EXPECT_EQ(r->node.value, 42u);
  EXPECT_EQ(r->job_id, 100007);
  EXPECT_EQ(r->blade.value, topo.blade_of(platform::NodeId{42}).value);
  EXPECT_EQ(symbols.view(r->detail), "Fatal exception");
}

TEST(ConsoleParserTest, ConsumerDaemonMapsToConsumerSource) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2015};
  const auto r = parse_console_line(
      "2015-03-02T14:05:01.000000 nid00001 c0-0c0s0n1 hwerrd: EDAC MC0: x", ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->source, logmodel::LogSource::Consumer);
}

TEST(ConsoleParserTest, RejectsMalformed) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2015};
  EXPECT_FALSE(parse_console_line("", ctx).has_value());
  EXPECT_FALSE(parse_console_line("not a line at all", ctx).has_value());
  EXPECT_FALSE(
      parse_console_line("2015-03-02T14:05:01.0 nid99999 c0-0c0s0n0 kernel: EDAC MC0: x", ctx)
          .has_value());
  EXPECT_FALSE(
      parse_console_line("2015-03-02T14:05:01.0 nid00001 c0-0c0s0n1 cron: EDAC MC0: x", ctx)
          .has_value());
}

TEST(MessagesParserTest, SyslogTimestampAndJob) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2015};
  const auto r = parse_messages_line(
      "Mar  2 14:05:01 nid00042 nhc[2114]: NHC: memory test failed jobid=55", ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, EventType::NhcTestFail);
  EXPECT_EQ(r->job_id, 55);
  EXPECT_EQ(util::civil_time(r->time).year, 2015);
}

TEST(MessagesParserTest, YearRolloverAcrossNewYear) {
  // A corpus window starting in December: syslog lines carry no year, so
  // January lines must be dated into base_year + 1, not 11 months back.
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2014, 12};
  const auto dec = parse_messages_line(
      "Dec 31 23:59:58 nid00042 nhc[2114]: NHC: memory test failed jobid=55", ctx);
  const auto jan = parse_messages_line(
      "Jan  1 00:00:07 nid00042 nhc[2114]: NHC: memory test failed jobid=55", ctx);
  ASSERT_TRUE(dec.has_value());
  ASSERT_TRUE(jan.has_value());
  EXPECT_EQ(util::civil_time(dec->time).year, 2014);
  EXPECT_EQ(util::civil_time(jan->time).year, 2015);
  EXPECT_LT(dec->time, jan->time);
}

TEST(ControllerParserTest, BladeScopedWarningWithValue) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2015};
  const auto r = parse_controller_line(
      "2015-03-02T00:10:00.000000 c0-0c1s3 cc: ec_sedc_warning: AIR_VEL reading 1.532 below "
      "minimum",
      ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, EventType::SedcAirVelocityWarning);
  EXPECT_FALSE(r->has_node());
  ASSERT_TRUE(r->has_blade());
  EXPECT_NEAR(r->value, 1.532, 1e-9);
  EXPECT_TRUE(r->has_cabinet());
}

TEST(ControllerParserTest, SedcReadingNodeScoped) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2015};
  const auto r = parse_controller_line(
      "2015-03-02T00:10:00.000000 c0-0c0s0n2 cc: sedc: CpuTemperature value=40.125", ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, EventType::SedcReading);
  EXPECT_EQ(r->node.value, 2u);
  EXPECT_NEAR(r->value, 40.125, 1e-9);
  EXPECT_EQ(symbols.view(r->detail), "CpuTemperature");
}

TEST(ErdParserTest, NodeEvent) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2015};
  const auto r = parse_erd_line(
      "2015-03-02T01:02:03.000000 erd ev=ec_node_voltage_fault src=c0-0c0s10n2 "
      "node=nid00042 node voltage fault: VDD out of range",
      ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, EventType::NodeVoltageFault);
  EXPECT_EQ(r->node.value, 42u);
  EXPECT_NE(symbols.view(r->detail).find("VDD"), std::string_view::npos);
}

TEST(ErdParserTest, BladeScopedEvent) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  const ParseContext ctx{&topo, &symbols, 2015};
  const auto r = parse_erd_line(
      "2015-03-02T01:02:03.000000 erd ev=ec_hw_error src=c0-0c1s7 corrected error", ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, EventType::EcHwError);
  EXPECT_FALSE(r->has_node());
  EXPECT_TRUE(r->has_blade());
}

TEST(SchedulerParserTest, BuildsJobTable) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  std::vector<jobs::JobUpdate> updates;
  const ParseContext ctx{&topo, &symbols, 2015, 1, &updates};

  const auto start = parse_scheduler_line(
      "2015-03-02T08:00:00.000000 slurmctld: sched: Allocate JobId=100001 Apid=1000017 "
      "User=alice App=vasp NodeList=nid[00000-00003] NodeCnt=4 MemPerNode=28.0G",
      ctx);
  ASSERT_TRUE(start.has_value());
  EXPECT_EQ(start->type, EventType::JobStart);

  const auto overalloc = parse_scheduler_line(
      "2015-03-02T08:00:30.000000 slurmctld: error: JobId=100001 OverallocCnt=2 allocated "
      "memory exceeds node capacity",
      ctx);
  ASSERT_TRUE(overalloc.has_value());
  EXPECT_EQ(overalloc->type, EventType::JobOverallocation);

  const auto end = parse_scheduler_line(
      "2015-03-02T09:00:00.000000 slurmctld: JobId=100001 Ended ExitCode=137:0 "
      "Reason=OomKilled",
      ctx);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(end->type, EventType::JobEnd);
  EXPECT_EQ(static_cast<int>(end->value), 137);

  const jobs::JobTable table(std::move(updates));
  const auto* job = table.find(100001);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(table.text(job->user), "alice");
  EXPECT_EQ(table.text(job->app), "vasp");
  EXPECT_EQ(table.nodes(*job).size(), 4u);
  EXPECT_EQ(job->apid, 1000017);
  EXPECT_NEAR(job->mem_per_node_gb, 28.0, 1e-9);
  EXPECT_TRUE(job->overallocated);
  EXPECT_EQ(job->overallocated_nodes, 2u);
  EXPECT_TRUE(job->ended);
  EXPECT_EQ(job->exit_code, 137);
}

TEST(SchedulerParserTest, TorqueDialectFullLifecycle) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  std::vector<jobs::JobUpdate> updates;
  const ParseContext ctx{&topo, &symbols, 2015, 1, &updates};

  const auto run = parse_scheduler_line(
      "03/02/2015 08:00:00;0008;PBS_Server;Job;200001.sdb;Job Run Apid=2000017 User=bob "
      "App=wrf NodeList=nid[00004-00007] NodeCnt=4 MemPerNode=24.0G",
      ctx);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->type, EventType::JobStart);
  EXPECT_EQ(run->job_id, 200001);

  const auto overalloc = parse_scheduler_line(
      "03/02/2015 08:00:30;0008;PBS_Server;Job;200001.sdb;OverallocCnt=3 allocated memory "
      "exceeds node capacity",
      ctx);
  ASSERT_TRUE(overalloc.has_value());
  EXPECT_EQ(overalloc->type, EventType::JobOverallocation);

  const auto exit = parse_scheduler_line(
      "03/02/2015 09:30:00;0008;PBS_Server;Job;200001.sdb;Exit_status=137 Reason=OomKilled",
      ctx);
  ASSERT_TRUE(exit.has_value());
  EXPECT_EQ(exit->type, EventType::JobEnd);
  EXPECT_EQ(static_cast<int>(exit->value), 137);

  const auto epilogue = parse_scheduler_line(
      "03/02/2015 09:30:05;0008;PBS_Server;Job;200001.sdb;Epilogue complete", ctx);
  ASSERT_TRUE(epilogue.has_value());
  EXPECT_EQ(epilogue->type, EventType::EpilogueRun);

  const jobs::JobTable table(std::move(updates));
  const auto* job = table.find(200001);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(table.text(job->user), "bob");
  EXPECT_EQ(table.nodes(*job).size(), 4u);
  EXPECT_TRUE(job->overallocated);
  EXPECT_EQ(job->overallocated_nodes, 3u);
  EXPECT_EQ(job->exit_code, 137);
  EXPECT_EQ(job->end.usec, util::make_time(2015, 3, 2, 9, 30).usec);
}

TEST(SchedulerParserTest, TorqueMalformedRejected) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  std::vector<jobs::JobUpdate> updates;
  const ParseContext ctx{&topo, &symbols, 2015, 1, &updates};
  EXPECT_FALSE(parse_scheduler_line("03/02/2015 08:00:00;0008;PBS_Server", ctx).has_value());
  EXPECT_FALSE(
      parse_scheduler_line("13/40/2015 08:00:00;0008;PBS_Server;Job;1.sdb;x", ctx).has_value());
  EXPECT_FALSE(parse_scheduler_line(
                   "03/02/2015 08:00:00;0008;NotPBS;Job;1.sdb;Epilogue complete", ctx)
                   .has_value());
  EXPECT_FALSE(parse_scheduler_line(
                   "03/02/2015 08:00:00;0008;PBS_Server;Job;abc.sdb;Epilogue complete", ctx)
                   .has_value());
}

std::string allocate_line(const std::string& node_list) {
  return "2015-03-02T08:00:00.000000 slurmctld: sched: Allocate JobId=100001 Apid=1000017 "
         "User=alice App=vasp NodeList=" +
         node_list + " NodeCnt=2 MemPerNode=28.0G";
}

TEST(SchedulerParserTest, NidAboveUint32IsRejectedNotTruncated) {
  // A 32-bit cast used to turn nid4294967301 into nid 5, a valid node.
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  std::vector<jobs::JobUpdate> updates;
  const ParseContext ctx{&topo, &symbols, 2015, 1, &updates};
  for (const char* nodes :
       {"nid4294967301", "nid[00001,4294967301]", "nid[4294967295-4294967301]"}) {
    EXPECT_FALSE(parse_scheduler_line(allocate_line(nodes), ctx).has_value()) << nodes;
  }
  EXPECT_EQ(jobs::JobTable(std::move(updates)).size(), 0u);
}

TEST(SchedulerParserTest, AllocationOutsideTopologyIsSkipped) {
  // JobTable sizes its per-node index by the largest nid, so a corrupted
  // nid must never reach the table.
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  std::vector<jobs::JobUpdate> updates;
  const ParseContext ctx{&topo, &symbols, 2015, 1, &updates};
  const std::string last = std::to_string(topo.node_count() - 1);
  const std::string past = std::to_string(topo.node_count());
  EXPECT_FALSE(parse_scheduler_line(allocate_line("nid[00001," + past + "]"), ctx).has_value());
  EXPECT_FALSE(parse_scheduler_line(allocate_line("nid4000000000"), ctx).has_value());
  // Without a topology no nid can be checked, so nothing registers.
  const ParseContext blind{nullptr, &symbols, 2015, 1, &updates};
  EXPECT_FALSE(parse_scheduler_line(allocate_line("nid[00001-00003]"), blind).has_value());
  EXPECT_EQ(jobs::JobTable(updates).size(), 0u);

  EXPECT_TRUE(parse_scheduler_line(allocate_line("nid[00001," + last + "]"), ctx).has_value());
  EXPECT_EQ(jobs::JobTable(updates).size(), 1u);
  // Like `symbols`, the update list is an output the parser needs.
  const ParseContext no_updates{&topo, &symbols, 2015};
  EXPECT_FALSE(parse_scheduler_line(allocate_line("nid[00001-00003]"), no_updates).has_value());
}

// No parser is noexcept: interning a detail allocates, and a std::bad_alloc
// must reach the pipeline as an IngestErrorKind::Resource error rather than
// call std::terminate.
static_assert(!noexcept(parse_console_line(std::string_view{}, ParseContext{})));
static_assert(!noexcept(parse_messages_line(std::string_view{}, ParseContext{})));
static_assert(!noexcept(parse_controller_line(std::string_view{}, ParseContext{})));
static_assert(!noexcept(parse_erd_line(std::string_view{}, ParseContext{})));
static_assert(!noexcept(parse_scheduler_line(std::string_view{}, ParseContext{})));

// -------------------------------------------------------------- totality ----

/// Property: mutated log lines never crash any parser (they may parse or
/// be rejected, but must not throw).
class ParserTotality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserTotality, MutatedLinesNeverThrow) {
  const auto topo = s1_topology();
  logmodel::SymbolTable symbols;
  std::vector<jobs::JobUpdate> updates;
  const ParseContext ctx{&topo, &symbols, 2015, 1, &updates};
  util::Rng rng(GetParam());

  const std::string templates[] = {
      "2015-03-02T14:05:01.123456 nid00042 c0-0c0s10n2 kernel: Kernel panic - not syncing: "
      "x jobid=7",
      "Mar  2 14:05:01 nid00042 nhc[2114]: NHC: memory test failed",
      "2015-03-02T00:10:00.000000 c0-0c1s3 cc: ec_sedc_warning: VDD reading 1.5 below",
      "2015-03-02T01:02:03.000000 erd ev=ec_hw_error src=c0-0c1s7 node=nid00042 detail",
      "2015-03-02T08:00:00.000000 slurmctld: sched: Allocate JobId=1 Apid=17 User=u App=a "
      "NodeList=nid[00000-00003] NodeCnt=4 MemPerNode=28.0G",
  };
  for (int iter = 0; iter < 400; ++iter) {
    std::string line(templates[rng.uniform_int(0, 4)]);
    // Apply 1-8 random mutations: deletion, substitution, truncation.
    const auto mutations = rng.uniform_int(1, 8);
    for (std::int64_t m = 0; m < mutations && !line.empty(); ++m) {
      const auto pos =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0: line.erase(pos, 1); break;
        case 1: line[pos] = static_cast<char>(rng.uniform_int(32, 126)); break;
        default: line.resize(pos); break;
      }
    }
    EXPECT_NO_THROW({
      (void)parse_console_line(line, ctx);
      (void)parse_messages_line(line, ctx);
      (void)parse_controller_line(line, ctx);
      (void)parse_erd_line(line, ctx);
      (void)parse_scheduler_line(line, ctx);
    }) << line;
  }
  // Whatever job facts the mutants produced fold without throwing.
  EXPECT_NO_THROW((void)jobs::JobTable(std::move(updates)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserTotality, ::testing::Values(11u, 22u, 33u, 44u));

// ------------------------------------------------ corpus-level parsing ----

TEST(CorpusParseTest, NewYearStraddlingWindowDatesRecordsInWindow) {
  // Dec 29 2014 + 5 days: most of the window is past New Year.  Syslog
  // lines carry no year, so before the rollover fix every post-Jan-1
  // messages record landed in January 2014 — eleven months early.
  auto config = faultsim::scenario_preset(platform::SystemName::S2, 5, 1231);
  config.begin = util::make_time(2014, 12, 29);
  const auto sim = faultsim::Simulator(config).run();
  const auto parsed = parse_corpus(loggen::build_corpus(sim));
  ASSERT_GT(parsed.parsed_records, 0u);

  const auto begin = config.begin;
  // Job-end and recovery records may trail the nominal window; anything
  // mis-dated by the rollover bug would be ~11 months out, far beyond this.
  const auto end = config.end() + util::Duration::days(2);
  for (const auto& r : parsed.store.records()) {
    ASSERT_GE(r.time, begin) << util::format_iso(r.time);
    ASSERT_LT(r.time, end) << util::format_iso(r.time);
  }

  // The syslog-stamped source must actually contribute post-rollover
  // records, or the loop above proved nothing.
  const auto newyear = util::make_time(2015, 1, 1);
  bool messages_after_newyear = false;
  for (const auto& r : parsed.store.records()) {
    if (r.source == logmodel::LogSource::Messages && r.time >= newyear) {
      messages_after_newyear = true;
      break;
    }
  }
  EXPECT_TRUE(messages_after_newyear);
}

TEST(CorpusParseTest, CrlfCorpusParsesIdentically) {
  // Corpora that passed through Windows tooling arrive CRLF-terminated;
  // the parse must be byte-identical to the LF original.
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S2, 1, 77)).run();
  const auto corpus = loggen::build_corpus(sim);
  loggen::Corpus crlf = corpus;
  for (auto& text : crlf.text) {
    std::string converted;
    converted.reserve(text.size() + text.size() / 40);
    for (const char c : text) {
      if (c == '\n') converted += '\r';
      converted += c;
    }
    text = std::move(converted);
  }

  const auto want = parse_corpus(corpus);
  const auto got = parse_corpus(crlf);
  EXPECT_EQ(want.total_lines, got.total_lines);
  EXPECT_EQ(want.parsed_records, got.parsed_records);
  EXPECT_EQ(want.skipped_lines, got.skipped_lines);
  ASSERT_EQ(want.store.size(), got.store.size());
  for (std::size_t i = 0; i < want.store.size(); ++i) {
    ASSERT_EQ(want.store[i].time, got.store[i].time) << i;
    ASSERT_EQ(want.store[i].type, got.store[i].type) << i;
    ASSERT_EQ(want.store.detail(i), got.store.detail(i)) << i;
  }
  EXPECT_EQ(want.jobs.size(), got.jobs.size());
}

}  // namespace
}  // namespace hpcfail::parsers
