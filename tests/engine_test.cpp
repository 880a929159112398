// AnalysisEngine equivalence and determinism (the tentpole guarantees):
//
//  1. On every system preset S1-S5 the engine's AnalysisResult is
//     record-for-record identical to the legacy hand-wired path
//     (FailureDetector + RootCauseEngine + LeadTimeAnalyzer +
//     ExternalCorrelator + BenignFaultAnalyzer + cluster_failures + report
//     helpers, each wired by hand, serial).
//  2. Same seed, 1 vs N threads: identical AnalysisResult — the parallel
//     per-failure stages assemble index-ordered, byte-identical to serial.
//
// Doubles are compared with EXPECT_EQ on purpose: both paths must execute
// the same operations in the same order, so even floating-point aggregates
// match exactly.
#include <gtest/gtest.h>

#include <string>

#include "core/benign_faults.hpp"
#include "core/clusters.hpp"
#include "core/engine.hpp"
#include "core/external_correlator.hpp"
#include "core/failure_detector.hpp"
#include "core/leadtime.hpp"
#include "core/report.hpp"
#include "core/root_cause.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace hpcfail {
namespace {

struct Corpus {
  faultsim::ScenarioConfig scenario;
  parsers::ParsedCorpus parsed;
};

Corpus make_corpus(platform::SystemName system, int days, std::uint64_t seed) {
  Corpus c;
  c.scenario = faultsim::scenario_preset(system, days, seed);
  const auto sim = faultsim::Simulator(c.scenario).run();
  c.parsed = parsers::parse_corpus(loggen::build_corpus(sim));
  return c;
}

void expect_failures_equal(const std::vector<core::AnalyzedFailure>& a,
                           const std::vector<core::AnalyzedFailure>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("failure " + std::to_string(i));
    EXPECT_EQ(a[i].event.node.value, b[i].event.node.value);
    EXPECT_EQ(a[i].event.blade.value, b[i].event.blade.value);
    EXPECT_EQ(a[i].event.cabinet.value, b[i].event.cabinet.value);
    EXPECT_EQ(a[i].event.time.usec, b[i].event.time.usec);
    EXPECT_EQ(a[i].event.marker, b[i].event.marker);
    EXPECT_EQ(a[i].event.job_id, b[i].event.job_id);
    EXPECT_EQ(a[i].event.first_internal.usec, b[i].event.first_internal.usec);
    EXPECT_EQ(a[i].event.chain, b[i].event.chain);
    EXPECT_EQ(a[i].inference.cause, b[i].inference.cause);
    EXPECT_EQ(a[i].inference.confidence, b[i].inference.confidence);
    EXPECT_EQ(a[i].inference.application_triggered, b[i].inference.application_triggered);
    EXPECT_EQ(a[i].inference.rationale, b[i].inference.rationale);
    EXPECT_EQ(a[i].inference.evidence.stack_modules, b[i].inference.evidence.stack_modules);
  }
}

void expect_lead_times_equal(const std::vector<core::FailureLeadTime>& a,
                             const std::vector<core::FailureLeadTime>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("lead time " + std::to_string(i));
    EXPECT_EQ(a[i].failure_index, b[i].failure_index);
    EXPECT_EQ(a[i].internal_lead.usec, b[i].internal_lead.usec);
    ASSERT_EQ(a[i].external_lead.has_value(), b[i].external_lead.has_value());
    if (a[i].external_lead) {
      EXPECT_EQ(a[i].external_lead->usec, b[i].external_lead->usec);
    }
  }
}

void expect_stats_equal(const stats::StreamingStats& a, const stats::StreamingStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stddev(), b.stddev());
}

void expect_summary_equal(const core::LeadTimeSummary& a, const core::LeadTimeSummary& b) {
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.enhanceable, b.enhanceable);
  expect_stats_equal(a.internal_minutes, b.internal_minutes);
  expect_stats_equal(a.internal_minutes_enh, b.internal_minutes_enh);
  expect_stats_equal(a.external_minutes, b.external_minutes);
}

void expect_clusters_equal(const std::vector<core::FailureCluster>& a,
                           const std::vector<core::FailureCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    EXPECT_EQ(a[i].first_index, b[i].first_index);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].begin.usec, b[i].begin.usec);
    EXPECT_EQ(a[i].end.usec, b[i].end.usec);
    EXPECT_EQ(a[i].distinct_nodes, b[i].distinct_nodes);
    EXPECT_EQ(a[i].distinct_blades, b[i].distinct_blades);
    EXPECT_EQ(a[i].dominant, b[i].dominant);
    EXPECT_EQ(a[i].dominant_count, b[i].dominant_count);
    EXPECT_EQ(a[i].shared_job, b[i].shared_job);
  }
}

void expect_results_equal(const core::AnalysisResult& a, const core::AnalysisResult& b) {
  EXPECT_EQ(a.begin.usec, b.begin.usec);
  EXPECT_EQ(a.end.usec, b.end.usec);
  expect_failures_equal(a.failures, b.failures);
  ASSERT_EQ(a.swos.size(), b.swos.size());
  EXPECT_EQ(a.intended_shutdowns_excluded, b.intended_shutdowns_excluded);
  EXPECT_EQ(a.breakdown.counts, b.breakdown.counts);
  EXPECT_EQ(a.breakdown.total, b.breakdown.total);
  EXPECT_EQ(a.layers.hardware, b.layers.hardware);
  EXPECT_EQ(a.layers.software, b.layers.software);
  EXPECT_EQ(a.layers.application, b.layers.application);
  EXPECT_EQ(a.layers.unknown, b.layers.unknown);
  expect_lead_times_equal(a.lead_times, b.lead_times);
  expect_summary_equal(a.lead_time_summary, b.lead_time_summary);
  EXPECT_EQ(a.nvf.faults, b.nvf.faults);
  EXPECT_EQ(a.nvf.matched, b.nvf.matched);
  EXPECT_EQ(a.nhf.faults, b.nhf.faults);
  EXPECT_EQ(a.nhf.matched, b.nhf.matched);
  EXPECT_EQ(a.nhf_breakdown.total, b.nhf_breakdown.total);
  EXPECT_EQ(a.nhf_breakdown.failed, b.nhf_breakdown.failed);
  EXPECT_EQ(a.sedc.warning_count, b.sedc.warning_count);
  EXPECT_EQ(a.sedc.fault_count, b.sedc.fault_count);
  EXPECT_EQ(a.interconnect.lane_degrades, b.interconnect.lane_degrades);
  expect_clusters_equal(a.clusters, b.clusters);
  EXPECT_EQ(a.cluster_summary.clusters, b.cluster_summary.clusters);
  EXPECT_EQ(a.cluster_summary.same_cause_fraction, b.cluster_summary.same_cause_fraction);
}

/// The engine must be record-for-record identical to the legacy
/// hand-wired path on every system dialect.
class EngineEquivalence : public ::testing::TestWithParam<platform::SystemName> {};

TEST_P(EngineEquivalence, MatchesLegacyHandWiredPath) {
  const auto c = make_corpus(GetParam(), 7, 3100);
  const auto& store = c.parsed.store;
  const auto begin = c.scenario.begin;
  const auto end = c.scenario.end();

  // Legacy path: each analyzer hand-wired, serial.
  const core::FailureDetector detector{core::DetectorConfig{}};
  const core::RootCauseEngine root_cause;
  auto events = detector.detect(store, &c.parsed.jobs);
  std::vector<core::AnalyzedFailure> failures(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    failures[i].event = std::move(events[i]);
    failures[i].inference = root_cause.diagnose(store, failures[i].event, &c.parsed.jobs);
  }
  const core::LeadTimeAnalyzer leadtime(store);
  const auto lead_times = leadtime.lead_times(failures);
  const auto lt_summary = leadtime.summarize(failures);
  const core::ExternalCorrelator correlator(store, failures);
  const auto nvf =
      correlator.correspondence(logmodel::EventType::NodeVoltageFault, begin, end);
  const auto nhf =
      correlator.correspondence(logmodel::EventType::NodeHeartbeatFault, begin, end);
  const auto nhf_breakdown = correlator.nhf_breakdown(begin, end);
  const core::BenignFaultAnalyzer benign(store);
  const auto sedc = benign.sedc_population(begin, end);
  const auto clusters = core::cluster_failures(failures);
  const auto breakdown = core::cause_breakdown(failures);
  const auto layers = core::layer_shares(failures);

  // Unified path: one engine run over the same window.
  const core::AnalysisEngine engine;
  const auto result = engine.analyze(store, &c.parsed.jobs, begin, end);

  ASSERT_GT(result.failures.size(), 0u) << "preset produced no failures";
  expect_failures_equal(result.failures, failures);
  expect_lead_times_equal(result.lead_times, lead_times);
  expect_summary_equal(result.lead_time_summary, lt_summary);
  EXPECT_EQ(result.nvf.faults, nvf.faults);
  EXPECT_EQ(result.nvf.matched, nvf.matched);
  EXPECT_EQ(result.nhf.faults, nhf.faults);
  EXPECT_EQ(result.nhf.matched, nhf.matched);
  EXPECT_EQ(result.nhf_breakdown.total, nhf_breakdown.total);
  EXPECT_EQ(result.nhf_breakdown.failed, nhf_breakdown.failed);
  EXPECT_EQ(result.nhf_breakdown.power_off, nhf_breakdown.power_off);
  EXPECT_EQ(result.sedc.blades_with_warnings, sedc.blades_with_warnings);
  EXPECT_EQ(result.sedc.warning_count, sedc.warning_count);
  expect_clusters_equal(result.clusters, clusters);
  EXPECT_EQ(result.breakdown.counts, breakdown.counts);
  EXPECT_EQ(result.breakdown.total, breakdown.total);
  EXPECT_EQ(result.layers.hardware, layers.hardware);
  EXPECT_EQ(result.layers.software, layers.software);
  EXPECT_EQ(result.layers.application, layers.application);
  EXPECT_EQ(result.layers.memory_exhaustion, layers.memory_exhaustion);
  EXPECT_EQ(result.layers.application_triggered, layers.application_triggered);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, EngineEquivalence,
                         ::testing::Values(platform::SystemName::S1, platform::SystemName::S2,
                                           platform::SystemName::S3, platform::SystemName::S4,
                                           platform::SystemName::S5),
                         [](const auto& info) {
                           return std::string(platform::to_string(info.param));
                         });

/// Same seed, 1 vs N threads: the sharded per-failure stages must
/// assemble identically — no ordering or partial-aggregation drift.
TEST(EngineDeterminism, OneVsManyThreadsIdentical) {
  const auto c = make_corpus(platform::SystemName::S1, 10, 3200);

  util::ThreadPool one(1);
  util::ThreadPool many(4);
  core::AnalysisConfig serial_config;
  serial_config.pool = &one;
  core::AnalysisConfig parallel_config;
  parallel_config.pool = &many;

  const auto serial = core::AnalysisEngine(serial_config)
                          .analyze(c.parsed.store, &c.parsed.jobs, c.scenario.begin,
                                   c.scenario.end());
  const auto parallel = core::AnalysisEngine(parallel_config)
                            .analyze(c.parsed.store, &c.parsed.jobs, c.scenario.begin,
                                     c.scenario.end());
  ASSERT_GT(serial.failures.size(), 1u);
  expect_results_equal(serial, parallel);

  // And the no-pool engine (fully serial loops) agrees with both.
  const auto unpooled = core::AnalysisEngine().analyze(
      c.parsed.store, &c.parsed.jobs, c.scenario.begin, c.scenario.end());
  expect_results_equal(unpooled, parallel);
}

/// The ParsedCorpus overload analyzes the corpus's full extent.
TEST(EngineTest, ParsedCorpusOverloadCoversFullExtent) {
  const auto c = make_corpus(platform::SystemName::S1, 5, 3300);
  const core::AnalysisEngine engine;
  const auto result = engine.analyze(c.parsed);
  EXPECT_EQ(result.begin.usec, c.parsed.store.first_time().usec);
  EXPECT_GT(result.end.usec, result.begin.usec);
  EXPECT_GT(result.failures.size(), 0u);
  // Lead times index the failure list one-to-one.
  ASSERT_EQ(result.lead_times.size(), result.failures.size());
  for (std::size_t i = 0; i < result.lead_times.size(); ++i) {
    EXPECT_EQ(result.lead_times[i].failure_index, i);
  }
}

/// Uninstalls the process-wide observability sinks even on test failure.
struct SinkGuard {
  SinkGuard(util::MetricsRegistry* m, util::TraceRecorder* t) {
    util::install_metrics(m);
    util::install_trace(t);
  }
  ~SinkGuard() {
    util::install_metrics(nullptr);
    util::install_trace(nullptr);
  }
};

/// Instrumentation must observe, never perturb: with metrics and tracing
/// installed the engine's AnalysisResult is byte-identical to the dark run
/// on every system dialect.
class EngineMetricsEquivalence : public ::testing::TestWithParam<platform::SystemName> {};

TEST_P(EngineMetricsEquivalence, MetricsOnVsOffIdenticalResult) {
  const auto c = make_corpus(GetParam(), 5, 3600);
  const core::AnalysisEngine engine;
  const auto dark = engine.analyze(c.parsed);

  util::MetricsRegistry registry;
  util::TraceRecorder recorder;
  core::AnalysisResult lit;
  {
    SinkGuard guard(&registry, &recorder);
    lit = engine.analyze(c.parsed);
  }
  expect_results_equal(dark, lit);

  // The instrumented run did record: the engine span plus one span per
  // stage.
  std::size_t analyzer_spans = 0;
  bool saw_engine_run = false;
  for (const auto& e : recorder.events()) {
    saw_engine_run = saw_engine_run || e.name == "hpcfail.engine.run";
    if (e.name.rfind("hpcfail.engine.analyzer_", 0) == 0) ++analyzer_spans;
  }
  EXPECT_TRUE(saw_engine_run);
  EXPECT_EQ(analyzer_spans, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, EngineMetricsEquivalence,
                         ::testing::Values(platform::SystemName::S1, platform::SystemName::S2,
                                           platform::SystemName::S3, platform::SystemName::S4,
                                           platform::SystemName::S5),
                         [](const auto& info) {
                           return std::string(platform::to_string(info.param));
                         });

/// 1 vs N threads with both sinks live: the pool's queue-depth gauge and
/// task-latency histogram fire from worker threads, and the result still
/// matches the dark serial run exactly.
TEST(EngineMetricsEquivalence, InstrumentedOneVsManyThreadsIdentical) {
  const auto c = make_corpus(platform::SystemName::S1, 7, 3700);
  const auto dark = core::AnalysisEngine().analyze(
      c.parsed.store, &c.parsed.jobs, c.scenario.begin, c.scenario.end());
  ASSERT_GT(dark.failures.size(), 1u);

  util::MetricsRegistry registry;
  util::TraceRecorder recorder;
  core::AnalysisResult serial;
  core::AnalysisResult parallel;
  {
    SinkGuard guard(&registry, &recorder);
    util::ThreadPool one(1);
    util::ThreadPool many(4);
    core::AnalysisConfig serial_config;
    serial_config.pool = &one;
    core::AnalysisConfig parallel_config;
    parallel_config.pool = &many;
    serial = core::AnalysisEngine(serial_config)
                 .analyze(c.parsed.store, &c.parsed.jobs, c.scenario.begin,
                          c.scenario.end());
    parallel = core::AnalysisEngine(parallel_config)
                   .analyze(c.parsed.store, &c.parsed.jobs, c.scenario.begin,
                            c.scenario.end());
  }
  expect_results_equal(dark, serial);
  expect_results_equal(dark, parallel);

  // Worker threads recorded into the registry while the pools ran.
  std::uint64_t tasks_completed = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name == "hpcfail.pool.tasks_completed") tasks_completed = value;
  }
  EXPECT_GT(tasks_completed, 0u);
}

/// An empty store analyzes to an all-empty result.
TEST(EngineTest, EmptyStoreYieldsEmptyResult) {
  const logmodel::LogStore store;
  const core::AnalysisEngine engine;
  const auto result = engine.analyze(store, nullptr, {}, {});
  EXPECT_TRUE(result.failures.empty());
  EXPECT_TRUE(result.lead_times.empty());
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.breakdown.total, 0u);
  EXPECT_EQ(result.layers.hardware, 0.0);
  EXPECT_EQ(result.nvf.faults, 0u);
}

}  // namespace
}  // namespace hpcfail
