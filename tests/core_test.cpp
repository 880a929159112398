// Unit tests for src/core on hand-crafted record sets: detector semantics,
// inference rules, temporal/spatial/external/lead-time/job analyses.
#include <gtest/gtest.h>

#include "core/analysis_context.hpp"
#include "core/benign_faults.hpp"
#include "core/clusters.hpp"
#include "core/engine.hpp"
#include "core/external_correlator.hpp"
#include "core/markdown_report.hpp"
#include "core/failure_detector.hpp"
#include "core/job_analysis.hpp"
#include "core/leadtime.hpp"
#include "core/report.hpp"
#include "core/root_cause.hpp"
#include "core/spatial.hpp"
#include "core/temporal.hpp"

namespace hpcfail::core {
namespace {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogSource;
using logmodel::RootCause;
using logmodel::Severity;

/// Detection + diagnosis over the store's full extent, through the same
/// AnalysisContext substrate the unified engine shares.
std::vector<AnalyzedFailure> analyze_all(const logmodel::LogStore& store,
                                         const jobs::JobTable* jobs,
                                         util::ThreadPool* pool = nullptr) {
  const AnalysisContext ctx(store, jobs, {}, pool);
  return ctx.failures();
}

const util::TimePoint kBase = util::make_time(2015, 3, 2);

/// Shared interner for the synthetic records; each store gets a copy.
logmodel::SymbolTable& test_symbols() {
  static logmodel::SymbolTable table;
  return table;
}

LogRecord rec(util::Duration offset, EventType type, std::uint32_t node,
              std::string detail = {}, std::int64_t job = logmodel::kNoJob) {
  LogRecord r;
  r.time = kBase + offset;
  r.type = type;
  r.severity = Severity::Error;
  r.node = platform::NodeId{node};
  r.blade = platform::BladeId{node / 4};
  r.cabinet = platform::CabinetId{0};
  r.detail = test_symbols().intern(detail);
  r.job_id = job;
  return r;
}

// -------------------------------------------------------------- detector ----

TEST(DetectorTest, MarkerClusterIsOneFailure) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(10), EventType::KernelPanic, 1));
  records.push_back(rec(util::Duration::minutes(10) + util::Duration::seconds(5),
                        EventType::NodeShutdown, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto failures = FailureDetector().detect(store, nullptr);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].marker, EventType::KernelPanic);
  EXPECT_EQ(failures[0].node.value, 1u);
}

TEST(DetectorTest, SeparateEpisodesSeparateFailures) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(10), EventType::KernelPanic, 1));
  records.push_back(rec(util::Duration::minutes(60), EventType::KernelPanic, 1));
  records.push_back(rec(util::Duration::minutes(10), EventType::NodeHalt, 2));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto failures = FailureDetector().detect(store, nullptr);
  EXPECT_EQ(failures.size(), 3u);
}

TEST(DetectorTest, ChainAndFirstInternal) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(5), EventType::HardwareError, 1));
  records.push_back(rec(util::Duration::minutes(8), EventType::MachineCheckException, 1));
  records.push_back(rec(util::Duration::minutes(9), EventType::KernelPanic, 1));
  // Unrelated node noise must not leak into the chain.
  records.push_back(rec(util::Duration::minutes(6), EventType::LustreError, 2));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto failures = FailureDetector().detect(store, nullptr);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].chain.size(), 2u);
  EXPECT_EQ((failures[0].time - failures[0].first_internal).to_minutes(), 4.0);
}

TEST(DetectorTest, LookbackBoundary) {
  std::vector<LogRecord> records;
  // Indicator 31 minutes before the marker: outside the 30-min lookback.
  records.push_back(rec(util::Duration::minutes(29), EventType::HardwareError, 1));
  records.push_back(rec(util::Duration::minutes(55), EventType::MachineCheckException, 1));
  records.push_back(rec(util::Duration::minutes(60), EventType::KernelPanic, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto failures = FailureDetector().detect(store, nullptr);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].chain.size(), 1u);  // only the MCE is in the window
  EXPECT_EQ((failures[0].time - failures[0].first_internal).to_minutes(), 5.0);
}

TEST(DetectorTest, JobAttributionFromRecordAndTable) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(9), EventType::KernelPanic, 1, "", 42));
  records.push_back(rec(util::Duration::minutes(20), EventType::KernelPanic, 5));
  const logmodel::LogStore store{std::move(records), test_symbols()};

  jobs::Job job;
  job.job_id = 99;
  job.start = kBase;
  job.end = kBase + util::Duration::hours(1);
  job.nodes = {platform::NodeId{5}};
  const jobs::JobTable table = jobs::JobTable::from_jobs({job});

  const auto failures = FailureDetector().detect(store, &table);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0].job_id, 42);  // from the record itself
  EXPECT_EQ(failures[1].job_id, 99);  // from the table lookup
}

// ---------------------------------------------------------------- engine ----

TEST(EngineTest, RuleOrderingOriginWins) {
  const RootCauseEngine engine;
  Evidence ev;
  ev.oom = true;
  ev.lustre_error = true;
  ev.kernel_oops = true;
  ev.stack_modules = {"lustre"};
  // OOM chain touching the file system is still memory exhaustion.
  EXPECT_EQ(engine.infer(ev, EventType::NodeHalt).cause, RootCause::MemoryExhaustion);
  EXPECT_TRUE(engine.infer(ev, EventType::NodeHalt).application_triggered);
}

TEST(EngineTest, FailSlowNeedsExternalEvidence) {
  const RootCauseEngine engine;
  Evidence ev;
  ev.mce = true;
  ev.hw_error = true;
  EXPECT_EQ(engine.infer(ev, EventType::NodeShutdown).cause, RootCause::HardwareMce);
  ev.ec_hw_errors = true;
  EXPECT_EQ(engine.infer(ev, EventType::NodeShutdown).cause, RootCause::FailSlowHardware);
}

TEST(EngineTest, UnknownPatterns) {
  const RootCauseEngine engine;
  Evidence l0;
  l0.l0_sysd_mce = true;
  EXPECT_EQ(engine.infer(l0, EventType::NodeShutdown).cause, RootCause::L0SysdMceUnknown);
  Evidence bios;
  bios.bios_error = true;
  EXPECT_EQ(engine.infer(bios, EventType::NodeShutdown).cause, RootCause::BiosUnknown);
  // But corroborated hardware evidence overrides the unknown bucket.
  bios.mce = true;
  EXPECT_EQ(engine.infer(bios, EventType::NodeShutdown).cause, RootCause::HardwareMce);
}

TEST(EngineTest, BareShutdownIsOperatorError) {
  const RootCauseEngine engine;
  const Evidence empty;
  const auto inference = engine.infer(empty, EventType::NodeShutdown);
  EXPECT_EQ(inference.cause, RootCause::OperatorError);
  EXPECT_LT(inference.confidence, 0.5);
}

TEST(EngineTest, LustreAndKernelRules) {
  const RootCauseEngine engine;
  Evidence lustre;
  lustre.lustre_bug = true;
  EXPECT_EQ(engine.infer(lustre, EventType::NodeHalt).cause, RootCause::LustreBug);
  Evidence kernel;
  kernel.invalid_opcode = true;
  kernel.kernel_oops = true;
  kernel.stack_modules = {"rwsem_down_failed"};
  EXPECT_EQ(engine.infer(kernel, EventType::NodeShutdown).cause, RootCause::KernelBug);
  Evidence app;
  app.app_exit_abnormal = true;
  app.nhc_test_fail = true;
  EXPECT_EQ(engine.infer(app, EventType::NodeHalt).cause, RootCause::AppAbnormalExit);
}

TEST(EngineTest, CollectEvidenceWindows) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(50), EventType::MachineCheckException, 1));
  records.push_back(rec(util::Duration::minutes(55), EventType::CallTrace, 1, "mce_log"));
  records.push_back(rec(util::Duration::minutes(60), EventType::KernelPanic, 1));
  // External ec_hw_error on the node's blade, 30 min before the failure.
  LogRecord ec = rec(util::Duration::minutes(30), EventType::EcHwError, 1);
  ec.source = LogSource::Erd;
  records.push_back(ec);
  // An MCE on another node of the same blade must NOT count.
  records.push_back(rec(util::Duration::minutes(59), EventType::OomKill, 2));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto failures = FailureDetector().detect(store, nullptr);
  ASSERT_EQ(failures.size(), 1u);
  const RootCauseEngine engine;
  const Evidence ev = engine.collect_evidence(store, failures[0], nullptr);
  EXPECT_TRUE(ev.mce);
  EXPECT_TRUE(ev.ec_hw_errors);
  EXPECT_FALSE(ev.oom);
  ASSERT_EQ(ev.stack_modules.size(), 1u);
  EXPECT_EQ(ev.stack_modules[0], "mce_log");
  EXPECT_EQ(engine.infer(ev, failures[0].marker).cause, RootCause::FailSlowHardware);
}

// -------------------------------------------------------------- temporal ----

std::vector<AnalyzedFailure> synthetic_failures(
    std::initializer_list<std::pair<int, RootCause>> minute_and_cause) {
  std::vector<AnalyzedFailure> out;
  std::uint32_t node = 0;
  for (const auto& [minute, cause] : minute_and_cause) {
    AnalyzedFailure f;
    f.event.node = platform::NodeId{node};
    f.event.blade = platform::BladeId{node / 4};
    f.event.cabinet = platform::CabinetId{0};
    f.event.time = kBase + util::Duration::minutes(minute);
    f.inference.cause = cause;
    f.inference.application_triggered = logmodel::is_application_triggered(cause);
    ++node;
    out.push_back(std::move(f));
  }
  return out;
}

TEST(TemporalTest, InterFailureGaps) {
  const auto failures = synthetic_failures({{0, RootCause::HardwareMce},
                                            {5, RootCause::HardwareMce},
                                            {65, RootCause::LustreBug}});
  const TemporalAnalyzer analyzer(failures);
  const auto gaps = analyzer.inter_failure_minutes(kBase, kBase + util::Duration::days(1));
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 5.0);
  EXPECT_DOUBLE_EQ(gaps[1], 60.0);
}

TEST(TemporalTest, WeeklyStatsBucketsByWeek) {
  const auto failures = synthetic_failures({{0, RootCause::HardwareMce},
                                            {10, RootCause::HardwareMce},
                                            {7 * 24 * 60 + 5, RootCause::LustreBug},
                                            {7 * 24 * 60 + 9, RootCause::LustreBug}});
  const TemporalAnalyzer analyzer(failures);
  const auto weeks = analyzer.weekly_stats(kBase, 2);
  ASSERT_EQ(weeks.size(), 2u);
  EXPECT_EQ(weeks[0].failures, 2u);
  EXPECT_EQ(weeks[1].failures, 2u);
  EXPECT_DOUBLE_EQ(weeks[0].gap_minutes.mean(), 10.0);
  EXPECT_DOUBLE_EQ(weeks[1].gap_minutes.mean(), 4.0);
  EXPECT_DOUBLE_EQ(weeks[0].fraction_within(16.0), 1.0);
}

TEST(TemporalTest, DominantCausePerDay) {
  const auto failures = synthetic_failures({{0, RootCause::LustreBug},
                                            {10, RootCause::LustreBug},
                                            {20, RootCause::HardwareMce},
                                            {24 * 60 + 1, RootCause::KernelBug}});
  const TemporalAnalyzer analyzer(failures);
  const auto days = analyzer.dominant_cause_per_day(kBase, 3);
  ASSERT_EQ(days.size(), 2u);  // day 3 has no failures and is omitted
  EXPECT_EQ(days[0].dominant, RootCause::LustreBug);
  EXPECT_NEAR(days[0].dominant_share(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(days[1].failures, 1u);
  EXPECT_DOUBLE_EQ(days[1].dominant_share(), 1.0);
}

// --------------------------------------------------------------- spatial ----

TEST(SpatialTest, AttributionFindsPlantedBladeFault) {
  std::vector<LogRecord> records;
  LogRecord fault;
  fault.time = kBase + util::Duration::hours(1);
  fault.type = EventType::BladeHeartbeatFault;
  fault.source = LogSource::Controller;
  fault.blade = platform::BladeId{0};
  fault.cabinet = platform::CabinetId{0};
  records.push_back(fault);
  LogRecord cab_fault;
  cab_fault.time = kBase + util::Duration::hours(2);
  cab_fault.type = EventType::CabinetPowerFault;
  cab_fault.source = LogSource::Controller;
  cab_fault.cabinet = platform::CabinetId{1};
  records.push_back(cab_fault);
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const SpatialAnalyzer spatial(store);

  auto failures = synthetic_failures(
      {{90, RootCause::HardwareMce}, {95, RootCause::HardwareMce}});
  failures[0].event.blade = platform::BladeId{0};   // on the faulty blade
  failures[0].event.cabinet = platform::CabinetId{0};
  failures[1].event.blade = platform::BladeId{20};  // elsewhere
  failures[1].event.cabinet = platform::CabinetId{1};  // faulty cabinet

  const auto attribution =
      spatial.attribute(failures, kBase, kBase + util::Duration::days(1));
  EXPECT_EQ(attribution.failures, 2u);
  EXPECT_EQ(attribution.on_faulty_blade, 1u);
  EXPECT_EQ(attribution.on_faulty_cabinet, 1u);
}

TEST(SpatialTest, BladeGroupsSameReason) {
  auto failures = synthetic_failures({{0, RootCause::LustreBug},
                                      {2, RootCause::LustreBug},
                                      {5, RootCause::HardwareMce},
                                      {6, RootCause::KernelBug}});
  // First two on blade 0, last two on blade 1.
  failures[0].event.blade = failures[1].event.blade = platform::BladeId{0};
  failures[2].event.blade = failures[3].event.blade = platform::BladeId{1};
  const logmodel::LogStore store{std::vector<LogRecord>{}};
  const SpatialAnalyzer spatial(store);
  const auto groups = spatial.blade_groups(failures, 2);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_TRUE(groups[0].same_reason);
  EXPECT_FALSE(groups[1].same_reason);
  EXPECT_DOUBLE_EQ(SpatialAnalyzer::same_reason_fraction(groups), 0.5);
}

// ------------------------------------------------------------- correlator ----

TEST(CorrelatorTest, NvfNhfCorrespondence) {
  std::vector<LogRecord> records;
  // NVF 5 min before the node-1 failure: matched.
  LogRecord nvf = rec(util::Duration::minutes(55), EventType::NodeVoltageFault, 1);
  nvf.source = LogSource::Erd;
  records.push_back(nvf);
  // NHF on node 9 with no failure: benign power-off.
  LogRecord nhf = rec(util::Duration::minutes(30), EventType::NodeHeartbeatFault, 9,
                      "node heartbeat fault: node powered off");
  nhf.source = LogSource::Erd;
  records.push_back(nhf);
  const logmodel::LogStore store{std::move(records), test_symbols()};

  auto failures = synthetic_failures({{60, RootCause::FailSlowHardware}});
  failures[0].event.node = platform::NodeId{1};
  const ExternalCorrelator correlator(store, failures);
  const auto nvf_c = correlator.correspondence(EventType::NodeVoltageFault, kBase,
                                               kBase + util::Duration::days(1));
  EXPECT_EQ(nvf_c.faults, 1u);
  EXPECT_EQ(nvf_c.matched, 1u);
  const auto breakdown = correlator.nhf_breakdown(kBase, kBase + util::Duration::days(1));
  EXPECT_EQ(breakdown.total, 1u);
  EXPECT_EQ(breakdown.failed, 0u);
  EXPECT_EQ(breakdown.power_off, 1u);
}

// --------------------------------------------------------------- leadtime ----

TEST(LeadTimeTest, EnhancementFromExternal) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(57), EventType::HardwareError, 1));
  records.push_back(rec(util::Duration::minutes(60), EventType::KernelPanic, 1));
  LogRecord ec = rec(util::Duration::minutes(40), EventType::EcHwError, 1);
  ec.source = LogSource::Erd;
  records.push_back(ec);
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto failures = analyze_all(store, nullptr);
  ASSERT_EQ(failures.size(), 1u);
  const LeadTimeAnalyzer analyzer(store);
  const auto lts = analyzer.lead_times(failures);
  ASSERT_EQ(lts.size(), 1u);
  EXPECT_DOUBLE_EQ(lts[0].internal_lead.to_minutes(), 3.0);
  ASSERT_TRUE(lts[0].enhanceable());
  EXPECT_DOUBLE_EQ(lts[0].external_lead->to_minutes(), 20.0);
  const auto summary = analyzer.summarize(failures);
  EXPECT_EQ(summary.enhanceable, 1u);
  EXPECT_NEAR(summary.enhancement_factor(), 20.0 / 3.0, 1e-9);
}

TEST(LeadTimeTest, NoEnhancementWithoutExternal) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(58), EventType::OomKill, 1));
  records.push_back(rec(util::Duration::minutes(60), EventType::NodeHalt, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto failures = analyze_all(store, nullptr);
  ASSERT_EQ(failures.size(), 1u);
  const LeadTimeAnalyzer analyzer(store);
  const auto summary = analyzer.summarize(failures);
  EXPECT_EQ(summary.enhanceable, 0u);
}

TEST(LeadTimeTest, PredictorPatternsAndGate) {
  std::vector<LogRecord> records;
  // True-positive pattern: HW error then MCE then failure.
  records.push_back(rec(util::Duration::minutes(10), EventType::HardwareError, 1));
  records.push_back(rec(util::Duration::minutes(12), EventType::MachineCheckException, 1));
  records.push_back(rec(util::Duration::minutes(20), EventType::KernelPanic, 1));
  // False-positive look-alike on node 2, no external, no failure.
  records.push_back(rec(util::Duration::minutes(10), EventType::HardwareError, 2));
  records.push_back(rec(util::Duration::minutes(12), EventType::MachineCheckException, 2));
  // Single-type burst on node 3: no pattern, never flagged.
  records.push_back(rec(util::Duration::minutes(10), EventType::LustreError, 3));
  records.push_back(rec(util::Duration::minutes(11), EventType::LustreError, 3));
  // External accompaniment for node 1 only.
  LogRecord ec = rec(util::Duration::minutes(5), EventType::EcHwError, 1);
  ec.source = LogSource::Erd;
  records.push_back(ec);
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto failures = analyze_all(store, nullptr);
  const LeadTimeAnalyzer analyzer(store);

  const auto internal_only = analyzer.evaluate_predictor(failures, false);
  EXPECT_EQ(internal_only.flagged, 2u);
  EXPECT_EQ(internal_only.true_positive, 1u);
  EXPECT_EQ(internal_only.false_positive, 1u);

  const auto gated = analyzer.evaluate_predictor(failures, true);
  EXPECT_EQ(gated.flagged, 1u);
  EXPECT_EQ(gated.false_positive, 0u);
}

TEST(ParallelAnalysisTest, MatchesSerialExactly) {
  // Many chains across nodes; parallel diagnosis must equal serial.
  std::vector<LogRecord> records;
  for (std::uint32_t n = 0; n < 40; ++n) {
    const auto base_offset = util::Duration::minutes(10 + n * 7);
    records.push_back(rec(base_offset, EventType::HardwareError, n));
    records.push_back(
        rec(base_offset + util::Duration::minutes(2), EventType::MachineCheckException, n));
    records.push_back(
        rec(base_offset + util::Duration::minutes(3), EventType::KernelPanic, n));
  }
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto serial = analyze_all(store, nullptr);
  util::ThreadPool pool(4);
  const auto parallel = analyze_all(store, nullptr, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].event.node.value, parallel[i].event.node.value);
    EXPECT_EQ(serial[i].inference.cause, parallel[i].inference.cause);
    EXPECT_EQ(serial[i].inference.rationale, parallel[i].inference.rationale);
  }
}

// ------------------------------------------------------------------ jobs ----

TEST(JobAnalysisTest, DailyOutcomesClassification) {
  std::vector<jobs::Job> raw;
  auto add = [&raw](jobs::JobOutcome outcome, int hours_in) {
    jobs::Job j;
    j.job_id = static_cast<std::int64_t>(raw.size()) + 1;
    j.start = kBase;
    j.end = kBase + util::Duration::hours(hours_in);
    j.nodes = {platform::NodeId{static_cast<std::uint32_t>(raw.size())}};
    j.outcome = outcome;
    raw.push_back(j);
  };
  add(jobs::JobOutcome::Completed, 1);
  add(jobs::JobOutcome::Completed, 2);
  add(jobs::JobOutcome::NonZeroExit, 3);
  add(jobs::JobOutcome::ConfigError, 4);
  add(jobs::JobOutcome::UserCancelled, 5);
  add(jobs::JobOutcome::OomKilled, 6);
  add(jobs::JobOutcome::Completed, 30);  // next day
  const jobs::JobTable table = jobs::JobTable::from_jobs(raw);
  const std::vector<AnalyzedFailure> no_failures;
  const JobAnalyzer analyzer(table, no_failures);
  const auto days = analyzer.daily_outcomes(kBase, 2);
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].jobs, 6u);
  EXPECT_EQ(days[0].success, 2u);
  EXPECT_EQ(days[0].nonzero, 1u);
  EXPECT_EQ(days[0].config_error, 1u);
  EXPECT_EQ(days[0].cancelled, 1u);
  EXPECT_EQ(days[0].node_caused, 1u);
  EXPECT_EQ(days[1].jobs, 1u);
}

TEST(JobAnalysisTest, SharedJobGroups) {
  auto failures = synthetic_failures({{0, RootCause::MemoryExhaustion},
                                      {2, RootCause::MemoryExhaustion},
                                      {4, RootCause::MemoryExhaustion},
                                      {60, RootCause::HardwareMce}});
  failures[0].event.job_id = failures[1].event.job_id = failures[2].event.job_id = 7;
  failures[0].event.blade = platform::BladeId{0};
  failures[1].event.blade = platform::BladeId{5};
  failures[2].event.blade = platform::BladeId{9};
  const jobs::JobTable empty_table;
  const JobAnalyzer analyzer(empty_table, failures);
  const auto groups = analyzer.shared_job_groups(2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].job_id, 7);
  EXPECT_EQ(groups[0].failures, 3u);
  EXPECT_EQ(groups[0].distinct_blades, 3u);
  EXPECT_EQ(groups[0].span.to_minutes(), 4.0);
  EXPECT_DOUBLE_EQ(analyzer.multi_blade_shared_job_fraction(), 1.0);
}

// -------------------------------------------------------------- clusters ----

TEST(ClusterTest, GapSplitsClusters) {
  auto failures = synthetic_failures({{0, RootCause::LustreBug},
                                      {5, RootCause::LustreBug},
                                      {10, RootCause::LustreBug},
                                      {120, RootCause::HardwareMce},
                                      {360, RootCause::KernelBug}});
  failures[0].event.job_id = failures[1].event.job_id = failures[2].event.job_id = 9;
  failures[0].event.blade = platform::BladeId{0};
  failures[1].event.blade = platform::BladeId{7};
  failures[2].event.blade = platform::BladeId{13};
  const auto clusters = cluster_failures(failures, util::Duration::minutes(30));
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0].size, 3u);
  EXPECT_TRUE(clusters[0].same_cause());
  EXPECT_EQ(clusters[0].shared_job, 9);
  EXPECT_EQ(clusters[0].distinct_blades, 3u);
  EXPECT_EQ(clusters[0].span().to_minutes(), 10.0);
  EXPECT_EQ(clusters[1].size, 1u);
  EXPECT_EQ(clusters[2].dominant, RootCause::KernelBug);

  const auto summary = summarize_clusters(clusters);
  EXPECT_EQ(summary.clusters, 3u);
  EXPECT_EQ(summary.multi_failure_clusters, 1u);
  EXPECT_DOUBLE_EQ(summary.same_cause_fraction, 1.0);
  EXPECT_DOUBLE_EQ(summary.shared_job_multi_blade_fraction, 1.0);
  EXPECT_DOUBLE_EQ(summary.max_size, 3.0);
}

TEST(ClusterTest, MixedCauseAndUnattributed) {
  auto failures = synthetic_failures(
      {{0, RootCause::LustreBug}, {5, RootCause::HardwareMce}});
  failures[0].event.job_id = 3;  // second failure unattributed
  const auto clusters = cluster_failures(failures, util::Duration::minutes(30));
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_FALSE(clusters[0].same_cause());
  EXPECT_EQ(clusters[0].shared_job, -1);
  EXPECT_DOUBLE_EQ(clusters[0].dominant_share(), 0.5);
}

TEST(ClusterTest, EmptyInput) {
  const std::vector<AnalyzedFailure> none;
  EXPECT_TRUE(cluster_failures(none).empty());
  const auto summary = summarize_clusters({});
  EXPECT_EQ(summary.clusters, 0u);
  EXPECT_EQ(summary.mean_size, 0.0);
}

// ---------------------------------------------------------------- report ----

TEST(ReportTest, BreakdownAndLayers) {
  const auto failures = synthetic_failures({{0, RootCause::HardwareMce},
                                            {1, RootCause::FailSlowHardware},
                                            {2, RootCause::LustreBug},
                                            {3, RootCause::MemoryExhaustion},
                                            {4, RootCause::BiosUnknown}});
  const auto breakdown = cause_breakdown(failures);
  EXPECT_EQ(breakdown.total, 5u);
  EXPECT_DOUBLE_EQ(breakdown.share(RootCause::HardwareMce), 0.2);
  const auto shares = layer_shares(failures);
  EXPECT_DOUBLE_EQ(shares.hardware, 0.4);
  EXPECT_DOUBLE_EQ(shares.software, 0.2);
  EXPECT_DOUBLE_EQ(shares.application, 0.2);
  EXPECT_DOUBLE_EQ(shares.unknown, 0.2);
  EXPECT_DOUBLE_EQ(shares.memory_exhaustion, 0.2);
  const std::string table = render_cause_table(breakdown, "test");
  EXPECT_NE(table.find("HardwareMce"), std::string::npos);
  EXPECT_NE(table.find("20.00%"), std::string::npos);
}

TEST(ReportTest, MarkdownReportContainsAllSections) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(5), EventType::HardwareError, 1));
  records.push_back(rec(util::Duration::minutes(8), EventType::MachineCheckException, 1));
  records.push_back(rec(util::Duration::minutes(9), EventType::KernelPanic, 1));
  records.push_back(rec(util::Duration::minutes(40), EventType::NodeBoot, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const platform::Topology topo;
  ReportInputs inputs;
  inputs.store = &store;
  inputs.topology = &topo;
  inputs.system_label = "TEST";
  inputs.begin = kBase;
  inputs.end = kBase + util::Duration::days(1);
  const std::string report = markdown_report(inputs);
  for (const char* section :
       {"# Node-failure report — TEST", "## Failures and root causes",
        "## Temporal structure", "## External indicators", "## Fleet availability",
        "## Recommended actions", "HardwareMce", "QuarantineNode"}) {
    EXPECT_NE(report.find(section), std::string::npos) << section;
  }
}

TEST(ReportTest, MarkdownReportRendersFromAFinishedAnalysis) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(5), EventType::HardwareError, 1));
  records.push_back(rec(util::Duration::minutes(8), EventType::MachineCheckException, 1));
  records.push_back(rec(util::Duration::minutes(9), EventType::KernelPanic, 1));
  records.push_back(rec(util::Duration::minutes(40), EventType::NodeBoot, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const platform::Topology topo;
  ReportInputs inputs;
  inputs.store = &store;
  inputs.topology = &topo;
  inputs.system_label = "TEST";
  inputs.begin = kBase;
  inputs.end = kBase + util::Duration::days(1);
  const AnalysisEngine engine;
  EXPECT_EQ(markdown_report(inputs, engine.analyze(store, nullptr, inputs.begin, inputs.end)),
            markdown_report(inputs));
  // An analysis of another window is refused, not rendered under this
  // window's header.
  const AnalysisResult other =
      engine.analyze(store, nullptr, inputs.begin, inputs.end + util::Duration::days(1));
  EXPECT_THROW((void)markdown_report(inputs, other), std::invalid_argument);
}

// Pinned: empty failure lists are a no-op for every report helper — zero
// counts, 0.0 shares (never NaN), empty usage — and the rendered table and
// Markdown report stay printable.
TEST(ReportTest, EmptyFailuresArePinned) {
  const std::vector<AnalyzedFailure> none;

  const auto breakdown = cause_breakdown(none);
  EXPECT_EQ(breakdown.total, 0u);
  for (std::size_t i = 0; i < breakdown.counts.size(); ++i) {
    const auto cause = static_cast<RootCause>(i);
    EXPECT_EQ(breakdown.count(cause), 0u);
    EXPECT_EQ(breakdown.share(cause), 0.0);  // exactly 0.0, not 0/0 = NaN
  }

  const auto shares = layer_shares(none);
  EXPECT_EQ(shares.hardware, 0.0);
  EXPECT_EQ(shares.software, 0.0);
  EXPECT_EQ(shares.application, 0.0);
  EXPECT_EQ(shares.unknown, 0.0);
  EXPECT_EQ(shares.memory_exhaustion, 0.0);
  EXPECT_EQ(shares.application_triggered, 0.0);

  EXPECT_TRUE(stack_module_usage(none).empty());

  // Rendering an empty breakdown yields just the total row, no NaN text.
  const std::string table = render_cause_table(breakdown, "empty");
  EXPECT_NE(table.find("total"), std::string::npos);
  EXPECT_EQ(table.find("nan"), std::string::npos);
  EXPECT_EQ(table.find("inf"), std::string::npos);
}

// Pinned: a failure-free window still renders a complete Markdown report
// with 0-valued percentages (the engine's empty guards end-to-end).
TEST(ReportTest, MarkdownReportOnFailureFreeWindow) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::minutes(5), EventType::SedcTemperatureWarning, 1));
  records.push_back(rec(util::Duration::minutes(9), EventType::NodeBoot, 2));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const platform::Topology topo;
  ReportInputs inputs;
  inputs.store = &store;
  inputs.topology = &topo;
  inputs.system_label = "EMPTY";
  inputs.begin = kBase;
  inputs.end = kBase + util::Duration::days(1);
  const std::string report = markdown_report(inputs);
  EXPECT_NE(report.find("0 node failures diagnosed"), std::string::npos);
  EXPECT_EQ(report.find("nan"), std::string::npos);
  EXPECT_EQ(report.find("-nan"), std::string::npos);
}

TEST(ReportTest, StackModuleUsage) {
  auto failures = synthetic_failures(
      {{0, RootCause::LustreBug}, {1, RootCause::LustreBug}, {2, RootCause::HardwareMce}});
  failures[0].inference.evidence.stack_modules = {"dvs_ipc_mesg", "ptlrpc_main"};
  failures[1].inference.evidence.stack_modules = {"dvs_ipc_mesg"};
  failures[2].inference.evidence.stack_modules = {"mce_log"};
  const auto usage = stack_module_usage(failures);
  ASSERT_EQ(usage.size(), 2u);
  bool lustre_found = false;
  for (const auto& row : usage) {
    if (row.cause == RootCause::LustreBug) {
      lustre_found = true;
      ASSERT_FALSE(row.modules.empty());
      EXPECT_EQ(row.modules.front().first, "dvs_ipc_mesg");
      EXPECT_EQ(row.modules.front().second, 2u);
    }
  }
  EXPECT_TRUE(lustre_found);
}

}  // namespace
}  // namespace hpcfail::core
