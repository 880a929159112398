// Robustness to logging discrepancies (the paper's challenge 1): degraded
// corpora — random line loss, corruption, missing time windows, absent
// sources — must degrade the analysis gracefully, never crash it.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/analysis_context.hpp"
#include "core/leadtime.hpp"
#include "core/root_cause.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "loggen/degrade.hpp"
#include "parsers/corpus_parser.hpp"
#include "parsers/ingest.hpp"

namespace hpcfail {
namespace {

/// Detection + diagnosis over the parsed corpus's full extent.
std::vector<core::AnalyzedFailure> diagnose_all(const parsers::ParsedCorpus& parsed) {
  const core::AnalysisContext ctx(
      parsed.store, &parsed.jobs, parsed.store.first_time(),
      parsed.store.last_time() + util::Duration::microseconds(1));
  return ctx.failures();
}

struct Baseline {
  faultsim::SimulationResult sim;
  loggen::Corpus corpus;
  std::size_t failures;
};

const Baseline& baseline() {
  static const Baseline b = [] {
    auto sim =
        faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S1, 7, 606))
            .run();
    auto corpus = loggen::build_corpus(sim);
    const auto parsed = parsers::parse_corpus(corpus);
    const auto failures = diagnose_all(parsed);
    return Baseline{std::move(sim), std::move(corpus), failures.size()};
  }();
  return b;
}

std::size_t detect_on(const loggen::Corpus& corpus) {
  const auto parsed = parsers::parse_corpus(corpus);
  return diagnose_all(parsed).size();
}

TEST(RobustnessTest, RandomLineLossDegradesGracefully) {
  loggen::DegradeConfig cfg;
  cfg.drop_line_fraction = 0.10;
  const auto degraded = loggen::degrade_corpus(baseline().corpus, cfg);
  const std::size_t found = detect_on(degraded);
  // 10% line loss may drop some markers but most failures survive.
  EXPECT_GT(found, baseline().failures * 7 / 10);
  EXPECT_LE(found, baseline().failures + 2);
}

TEST(RobustnessTest, HeavyCorruptionNeverCrashes) {
  loggen::DegradeConfig cfg;
  cfg.corrupt_line_fraction = 0.5;
  const auto degraded = loggen::degrade_corpus(baseline().corpus, cfg);
  const auto parsed = parsers::parse_corpus(degraded);
  EXPECT_GT(parsed.skipped_lines, 0u);  // corruption rejects some lines
  const auto failures = diagnose_all(parsed);
  EXPECT_GT(failures.size(), 0u);
}

TEST(RobustnessTest, MissingTimeWindowRemovesThoseFailures) {
  const auto& b = baseline();
  loggen::DegradeConfig cfg;
  cfg.gap_begin = b.corpus.begin + util::Duration::days(2);
  cfg.gap_end = b.corpus.begin + util::Duration::days(4);
  const auto degraded = loggen::degrade_corpus(b.corpus, cfg);
  const auto parsed = parsers::parse_corpus(degraded);
  // The gap is empty of records.
  EXPECT_TRUE(parsed.store.range(*cfg.gap_begin, *cfg.gap_end).empty());
  // Failures outside the gap still detected.
  const auto failures = diagnose_all(parsed);
  std::size_t planted_outside = 0;
  for (const auto& f : b.sim.truth.failures) {
    if (f.fail_time < *cfg.gap_begin || f.fail_time >= *cfg.gap_end) ++planted_outside;
  }
  EXPECT_GT(failures.size(), planted_outside * 8 / 10);
}

TEST(RobustnessTest, DroppingExternalSourcesKillsLeadTimeOnly) {
  loggen::DegradeConfig cfg;
  cfg.drop_source[static_cast<std::size_t>(logmodel::LogSource::Erd)] = true;
  cfg.drop_source[static_cast<std::size_t>(logmodel::LogSource::Controller)] = true;
  const auto degraded = loggen::degrade_corpus(baseline().corpus, cfg);
  const auto parsed = parsers::parse_corpus(degraded);
  const auto failures = diagnose_all(parsed);
  // Detection barely changes (it is internal-log driven)...
  EXPECT_GT(failures.size(), baseline().failures * 9 / 10);
  // ...but without the external universe no lead-time enhancement exists
  // (the S5 situation, Observation 5).
  const core::LeadTimeAnalyzer analyzer(parsed.store);
  EXPECT_EQ(analyzer.summarize(failures).enhanceable, 0u);
}

// --- Corruption matrix -----------------------------------------------------
//
// Each case damages the corpus *text* in memory in a specific way, then
// checks that the streaming chunked ingest of the damaged bytes produces
// byte-for-byte the same accounting (total / parsed / skipped lines, store
// size) as the in-memory parse of the same damaged text.  This pins the
// skip bookkeeping exactly: damage may cost records, but never accounting.

/// Writes `corpus` to a scratch dir and streams it back with deliberately
/// small chunks so the damage spans chunk boundaries.
parsers::IngestResult ingest_damaged(const loggen::Corpus& corpus) {
  const std::string dir = "/tmp/hpcfail_robustness_corruption";
  std::filesystem::remove_all(dir);
  loggen::write_corpus(corpus, dir);
  parsers::IngestOptions options;
  options.chunk_bytes = 4096;
  auto result = parsers::ingest_files(dir, options);
  std::filesystem::remove_all(dir);
  return result;
}

void expect_accounting_matches(const loggen::Corpus& damaged) {
  const auto reference = parsers::parse_corpus(damaged);
  const auto streamed = ingest_damaged(damaged);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed.total_lines, reference.total_lines);
  EXPECT_EQ(streamed.parsed_records, reference.parsed_records);
  EXPECT_EQ(streamed.skipped_lines, reference.skipped_lines);
  EXPECT_EQ(streamed.store.size(), reference.store.size());
  EXPECT_EQ(streamed.parsed_records + streamed.skipped_lines, streamed.total_lines);
}

TEST(CorruptionMatrixTest, GarbledBytesMidRecord) {
  loggen::Corpus damaged = baseline().corpus;
  std::string& text = damaged.of(logmodel::LogSource::Console);
  ASSERT_GT(text.size(), 9000u);
  // Stomp a 64-byte window in the middle of the file with non-newline
  // garbage, straddling whatever record happens to live there.
  for (std::size_t i = text.size() / 2; i < text.size() / 2 + 64; ++i) {
    if (text[i] != '\n') text[i] = '\x01';
  }
  expect_accounting_matches(damaged);
}

TEST(CorruptionMatrixTest, NulBytesInsideLines) {
  loggen::Corpus damaged = baseline().corpus;
  std::string& text = damaged.of(logmodel::LogSource::Messages);
  ASSERT_GT(text.size(), 4096u);
  // NUL every 97th byte (skipping newlines): binary junk must flow through
  // the chunked reader and the line splitter without truncating anything.
  for (std::size_t i = 0; i < text.size(); i += 97) {
    if (text[i] != '\n') text[i] = '\0';
  }
  expect_accounting_matches(damaged);
}

TEST(CorruptionMatrixTest, SingleLineLongerThanChunk) {
  loggen::Corpus damaged = baseline().corpus;
  std::string& text = damaged.of(logmodel::LogSource::Console);
  // Splice one 3-chunk monster line into the middle of the file (on a line
  // boundary): the reader must grow its chunk past chunk_bytes rather than
  // splitting the line, and the line counts as exactly one skip.
  const std::size_t newline = text.find('\n', text.size() / 2);
  ASSERT_NE(newline, std::string::npos);
  text.insert(newline + 1, std::string(3 * 4096, 'x') + '\n');
  expect_accounting_matches(damaged);
}

TEST(CorruptionMatrixTest, MidLineEof) {
  loggen::Corpus damaged = baseline().corpus;
  std::string& text = damaged.of(logmodel::LogSource::Controller);
  ASSERT_GT(text.size(), 2u);
  // Cut the file mid-line: drop the final newline plus half of the last
  // record.  The dangling partial line is still a line — seen, skipped,
  // and counted identically by both paths.
  const std::size_t last_newline = text.find_last_of('\n', text.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  text.resize(last_newline + 1 + (text.size() - last_newline - 1) / 2);
  expect_accounting_matches(damaged);
}

TEST(CorruptionMatrixTest, InflatedSchedulerNids) {
  loggen::Corpus damaged = baseline().corpus;
  std::string& text = damaged.of(logmodel::LogSource::Scheduler);
  // Prepend digits to the first nid of every third allocation, so ids land
  // past the topology and past 32 bits.  One such id used to size the job
  // table's per-node index at gigabytes; now each line is a counted skip.
  const std::string key = "NodeList=nid";
  std::size_t allocations = 0;
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + 1)) {
    if (allocations++ % 3 != 0) continue;
    std::size_t digits = pos + key.size();
    if (text[digits] == '[') ++digits;
    text.insert(digits, "999999999999");
  }
  ASSERT_GT(allocations, 0u);
  EXPECT_NO_THROW(expect_accounting_matches(damaged));
}

TEST(RobustnessTest, DegradeIsDeterministic) {
  loggen::DegradeConfig cfg;
  cfg.drop_line_fraction = 0.2;
  cfg.corrupt_line_fraction = 0.1;
  cfg.seed = 7;
  const auto a = loggen::degrade_corpus(baseline().corpus, cfg);
  const auto b = loggen::degrade_corpus(baseline().corpus, cfg);
  for (std::size_t s = 0; s < a.text.size(); ++s) {
    EXPECT_EQ(a.text[s], b.text[s]);
  }
}

}  // namespace
}  // namespace hpcfail
