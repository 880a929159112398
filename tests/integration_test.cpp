// End-to-end integration: simulate -> render -> parse -> analyze, scored
// against the injector's ground-truth ledger.  These tests are the
// equivalent of the paper's administrator validation of failure ground
// truth (Section II-A step 1).
#include <gtest/gtest.h>

#include <map>

#include "core/analysis_context.hpp"
#include "core/leadtime.hpp"
#include "core/report.hpp"
#include "core/root_cause.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"

namespace hpcfail {
namespace {

struct Pipeline {
  faultsim::SimulationResult sim;
  loggen::Corpus corpus;
  parsers::ParsedCorpus parsed;
  std::vector<core::AnalyzedFailure> failures;
};

Pipeline run_pipeline(platform::SystemName system, int days, std::uint64_t seed) {
  Pipeline p{faultsim::Simulator(faultsim::scenario_preset(system, days, seed)).run(),
             {}, {}, {}};
  p.corpus = loggen::build_corpus(p.sim);
  p.parsed = parsers::parse_corpus(p.corpus);
  const core::AnalysisContext ctx(p.parsed.store, &p.parsed.jobs);
  p.failures = ctx.failures();
  return p;
}

/// Matches detected failures to planted ones by (node, |dt| <= 5 min).
struct MatchResult {
  std::size_t matched = 0;
  std::size_t cause_correct = 0;
  std::size_t planted = 0;
  std::size_t detected = 0;
};

MatchResult match_against_truth(const Pipeline& p) {
  MatchResult m;
  m.planted = p.sim.truth.failures.size();
  m.detected = p.failures.size();
  std::vector<bool> used(p.failures.size(), false);
  for (const auto& truth : p.sim.truth.failures) {
    for (std::size_t i = 0; i < p.failures.size(); ++i) {
      if (used[i]) continue;
      const auto& f = p.failures[i];
      if (f.event.node != truth.node) continue;
      if (std::abs((f.event.time - truth.fail_time).usec) >
          util::Duration::minutes(5).usec) {
        continue;
      }
      used[i] = true;
      ++m.matched;
      if (f.inference.cause == truth.cause) ++m.cause_correct;
      break;
    }
  }
  return m;
}

TEST(IntegrationTest, DetectorRecoversPlantedFailures) {
  const auto p = run_pipeline(platform::SystemName::S1, 14, 7001);
  const auto m = match_against_truth(p);
  ASSERT_GT(m.planted, 20u);
  // Recall: nearly every planted failure is found from the raw text alone.
  EXPECT_GE(static_cast<double>(m.matched) / static_cast<double>(m.planted), 0.95);
  // Precision: no significant spurious detections.
  EXPECT_LE(m.detected, m.planted + m.planted / 10 + 2);
}

/// The same recall/precision bar must hold on every system preset — the
/// dialects (naming scheme, scheduler grammar, missing external universe)
/// must not cost detection quality.
class CrossSystemRecall : public ::testing::TestWithParam<platform::SystemName> {};

TEST_P(CrossSystemRecall, RecallAndPrecisionHold) {
  const auto p = run_pipeline(GetParam(), 14, 7100);
  const auto m = match_against_truth(p);
  ASSERT_GT(m.planted, 10u) << platform::to_string(GetParam());
  EXPECT_GE(static_cast<double>(m.matched) / static_cast<double>(m.planted), 0.93)
      << platform::to_string(GetParam());
  EXPECT_LE(m.detected, m.planted + m.planted / 10 + 2)
      << platform::to_string(GetParam());
  // Cause accuracy stays useful everywhere.
  EXPECT_GE(static_cast<double>(m.cause_correct) / static_cast<double>(m.matched), 0.70)
      << platform::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, CrossSystemRecall,
                         ::testing::Values(platform::SystemName::S1, platform::SystemName::S2,
                                           platform::SystemName::S3, platform::SystemName::S4,
                                           platform::SystemName::S5));

TEST(IntegrationTest, RootCauseAccuracyIsHigh) {
  const auto p = run_pipeline(platform::SystemName::S1, 21, 7002);
  const auto m = match_against_truth(p);
  ASSERT_GT(m.matched, 30u);
  const double accuracy =
      static_cast<double>(m.cause_correct) / static_cast<double>(m.matched);
  EXPECT_GE(accuracy, 0.75) << "cause confusion:\n"
                            << core::render_cause_table(
                                   core::cause_breakdown(p.failures), "diagnosed");
}

TEST(IntegrationTest, ParseDropsNothingEssential) {
  const auto p = run_pipeline(platform::SystemName::S2, 7, 7003);
  // Every planted chain leaves markers; skipped lines must be a small
  // minority (job-trailing epilogue lines and unparsed chatter).
  EXPECT_LT(p.parsed.skipped_lines, p.parsed.total_lines / 5);
  EXPECT_GT(p.parsed.parsed_records, 0u);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const auto a = run_pipeline(platform::SystemName::S3, 7, 7004);
  const auto b = run_pipeline(platform::SystemName::S3, 7, 7004);
  ASSERT_EQ(a.sim.records.size(), b.sim.records.size());
  EXPECT_EQ(a.corpus.bytes(), b.corpus.bytes());
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].event.node.value, b.failures[i].event.node.value);
    EXPECT_EQ(a.failures[i].event.time.usec, b.failures[i].event.time.usec);
    EXPECT_EQ(a.failures[i].inference.cause, b.failures[i].inference.cause);
  }
}

TEST(IntegrationTest, S5HasNoExternalUniverse) {
  const auto p = run_pipeline(platform::SystemName::S5, 7, 7005);
  EXPECT_TRUE(p.corpus.of(logmodel::LogSource::Erd).empty());
  EXPECT_TRUE(p.corpus.of(logmodel::LogSource::Controller).empty());
  // And therefore no lead-time enhancements are possible (Observation 5).
  const core::LeadTimeAnalyzer analyzer(p.parsed.store);
  const auto summary = analyzer.summarize(p.failures);
  EXPECT_EQ(summary.enhanceable, 0u);
}

TEST(IntegrationTest, LeadTimesNonNegative) {
  const auto p = run_pipeline(platform::SystemName::S4, 14, 7006);
  const core::LeadTimeAnalyzer analyzer(p.parsed.store);
  for (const auto& lt : analyzer.lead_times(p.failures)) {
    EXPECT_GE(lt.internal_lead.usec, 0);
    if (lt.external_lead) {
      EXPECT_GT(lt.external_lead->usec, lt.internal_lead.usec);
    }
  }
}

}  // namespace
}  // namespace hpcfail
