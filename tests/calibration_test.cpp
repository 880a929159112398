// Seed-robustness of the scenario calibration: the paper-band properties
// the benches claim must hold across seeds, not just at the benches' fixed
// seeds.  Also covers the newest substrate pieces end-to-end: interconnect
// events, routine chatter, and the timeseries burstiness stats.
#include <gtest/gtest.h>

#include "core/analysis_context.hpp"
#include "core/benign_faults.hpp"
#include "core/external_correlator.hpp"
#include "core/leadtime.hpp"
#include "core/root_cause.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "sensors/sensor_model.hpp"
#include "stats/timeseries.hpp"

namespace hpcfail {
namespace {

struct CorpusRun {
  faultsim::SimulationResult sim;
  loggen::Corpus corpus;
  parsers::ParsedCorpus parsed;
  std::vector<core::AnalyzedFailure> failures;
};

CorpusRun run_s1(std::uint64_t seed) {
  CorpusRun r{faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S1, 21, seed))
            .run(),
        {}, {}, {}};
  r.corpus = loggen::build_corpus(r.sim);
  r.parsed = parsers::parse_corpus(r.corpus);
  const core::AnalysisContext ctx(r.parsed.store, &r.parsed.jobs);
  r.failures = ctx.failures();
  return r;
}

class CalibrationAcrossSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalibrationAcrossSeeds, PaperBandsHold) {
  const CorpusRun r = run_s1(GetParam());
  ASSERT_GT(r.failures.size(), 30u);

  // NVF -> failure correspondence stays high (Fig 5 band, widened).
  const core::ExternalCorrelator correlator(r.parsed.store, r.failures);
  const auto nvf = correlator.correspondence(logmodel::EventType::NodeVoltageFault,
                                             r.sim.config.begin, r.sim.config.end());
  if (nvf.faults >= 5) {
    EXPECT_GE(nvf.fraction(), 0.5) << "seed " << GetParam();
  }
  // NHF -> failure correspondence stays in the weak-correlation band.
  const auto nhf = correlator.correspondence(logmodel::EventType::NodeHeartbeatFault,
                                             r.sim.config.begin, r.sim.config.end());
  EXPECT_GE(nhf.fraction(), 0.15) << "seed " << GetParam();
  EXPECT_LE(nhf.fraction(), 0.80) << "seed " << GetParam();

  // Lead-time enhanceable fraction stays in the Fig 13 band (widened).
  const core::LeadTimeAnalyzer leadtime(r.parsed.store);
  const auto lt = leadtime.summarize(r.failures);
  EXPECT_GE(lt.enhanceable_fraction(), 0.05) << "seed " << GetParam();
  EXPECT_LE(lt.enhanceable_fraction(), 0.40) << "seed " << GetParam();

  // Parse fidelity: exactly the chatter is skipped.
  EXPECT_EQ(r.parsed.skipped_lines, r.corpus.chatter_lines);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalibrationAcrossSeeds,
                         ::testing::Values(101u, 202u, 303u));

TEST(InterconnectTest, FailoverChainRoundTrips) {
  const CorpusRun r = run_s1(404);
  const auto& store = r.parsed.store;
  // Lane degrades exist and each failed failover left its marker.
  const auto degrades = store.count_of_type(logmodel::EventType::LaneDegrade);
  const auto ok = store.count_of_type(logmodel::EventType::LinkFailover);
  const auto failed = store.count_of_type(logmodel::EventType::LinkFailoverFailed);
  EXPECT_GT(degrades, 20u);
  EXPECT_EQ(degrades, ok + failed);
  EXPECT_GT(ok, failed);  // adaptive routing mostly works
  // Failed failovers surface interconnect errors on nodes.
  if (failed > 0) {
    EXPECT_GT(store.count_of_type(logmodel::EventType::InterconnectError), 0u);
  }
  const core::BenignFaultAnalyzer benign(store);
  const auto summary = benign.interconnect_summary(r.sim.config.begin, r.sim.config.end(),
                                                   r.failures);
  EXPECT_EQ(summary.lane_degrades, degrades);
}

TEST(SensorWarningTest, DeviantWarningsCarryOutOfBandReadings) {
  const CorpusRun r = run_s1(606);
  const auto& store = r.parsed.store;
  std::size_t checked = 0;
  for (const std::uint32_t idx :
       store.type_index(logmodel::EventType::SedcAirVelocityWarning)) {
    const auto& rec = store[idx];
    if (rec.value == 0.0) continue;  // transient warnings carry synthetic values too
    // Deviant-blade warnings carry the actual sampled reading, which must
    // sit outside the allowed band.
    const auto spec = sensors::default_spec(sensors::SensorKind::AirVelocity);
    EXPECT_TRUE(rec.value < spec.warn_low || rec.value > spec.warn_high) << rec.value;
    ++checked;
    if (checked > 200) break;
  }
  EXPECT_GT(checked, 50u);
}

TEST(ChatterTest, ChatterPresentAndSkippedOnly) {
  const CorpusRun r = run_s1(505);
  EXPECT_GT(r.corpus.chatter_lines, 1000u);
  // Chatter never becomes records: no record detail matches a chatter
  // payload signature.
  for (const auto& rec : r.parsed.store.records()) {
    const std::string_view detail = r.parsed.store.detail(rec);
    EXPECT_EQ(detail.find("crng init done"), std::string_view::npos);
    EXPECT_EQ(detail.find("Started Session"), std::string_view::npos);
  }
}

TEST(TimeseriesTest, WindowedCountsAndDispersion) {
  const std::vector<double> events = {0.5, 0.6, 0.7, 5.5, 5.6, 12.0};
  const auto counts = stats::windowed_counts(events, 0.0, 15.0, 1.0);
  ASSERT_EQ(counts.size(), 15u);
  EXPECT_EQ(counts[0], 3.0);
  EXPECT_EQ(counts[5], 2.0);
  EXPECT_EQ(counts[12], 1.0);
  EXPECT_GT(stats::index_of_dispersion(counts), 1.0);  // clustered
  // A constant series is under-dispersed.
  const std::vector<double> constant(20, 4.0);
  EXPECT_DOUBLE_EQ(stats::index_of_dispersion(constant), 0.0);
  // Degenerate inputs.
  EXPECT_EQ(stats::index_of_dispersion({}), 0.0);
  EXPECT_TRUE(stats::windowed_counts(events, 0.0, 0.0, 1.0).empty());
}

}  // namespace
}  // namespace hpcfail
