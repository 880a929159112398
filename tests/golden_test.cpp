// Golden-corpus regression: a small checked-in corpus
// (testdata/golden_corpus, generated from testdata/golden.scenario) must
// keep parsing to the same structured content and the same diagnosis.
// This pins BOTH the on-disk formats and the analysis behavior across
// releases; if a change legitimately alters either, regenerate the fixture
// with corpus_tool (see the scenario file header) and review the diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/analysis_context.hpp"
#include "core/report.hpp"
#include "core/root_cause.hpp"
#include "faultsim/scenario_io.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "parsers/snapshot.hpp"
#include "util/scan.hpp"

namespace hpcfail {
namespace {

std::string golden_dir() {
  // Tests run from the build tree; the fixture lives in the source tree.
  for (const char* candidate :
       {"../testdata/golden_corpus", "../../testdata/golden_corpus",
        "testdata/golden_corpus", "/root/repo/testdata/golden_corpus"}) {
    if (std::filesystem::exists(std::filesystem::path(candidate) / "manifest.txt")) {
      return candidate;
    }
  }
  return {};
}

class GoldenCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir = golden_dir();
    if (dir.empty()) GTEST_SKIP() << "golden corpus not found";
    corpus_ = std::make_unique<loggen::Corpus>(loggen::read_corpus(dir));
    parsed_ = std::make_unique<parsers::ParsedCorpus>(parsers::parse_corpus(*corpus_));
  }
  std::unique_ptr<loggen::Corpus> corpus_;
  std::unique_ptr<parsers::ParsedCorpus> parsed_;
};

TEST_F(GoldenCorpus, ManifestPinned) {
  EXPECT_EQ(corpus_->system.label, "S1");
  EXPECT_EQ(corpus_->days, 2);
  EXPECT_EQ(parsed_->topology.node_count(), 192u);
  EXPECT_EQ(util::format_iso(corpus_->begin), "2015-03-02T00:00:00.000000");
}

TEST_F(GoldenCorpus, ParseCountsPinned) {
  EXPECT_EQ(parsed_->total_lines, 1710u);
  EXPECT_EQ(parsed_->parsed_records, 1590u);
  EXPECT_EQ(parsed_->skipped_lines, 120u);  // exactly the routine chatter
  EXPECT_EQ(parsed_->jobs.size(), 260u);
}

TEST_F(GoldenCorpus, DiagnosisPinned) {
  const core::AnalysisContext ctx(parsed_->store, &parsed_->jobs);
  const auto& failures = ctx.failures();
  ASSERT_EQ(failures.size(), 8u);
  const auto breakdown = core::cause_breakdown(failures);
  EXPECT_EQ(breakdown.count(logmodel::RootCause::HardwareMce), 4u);
  EXPECT_EQ(breakdown.count(logmodel::RootCause::KernelBug), 2u);
  EXPECT_EQ(breakdown.count(logmodel::RootCause::MemoryExhaustion), 1u);
  EXPECT_EQ(breakdown.count(logmodel::RootCause::AppAbnormalExit), 1u);
}

TEST_F(GoldenCorpus, SnapshotBytesPinned) {
  // The saved snapshot is pinned by size and trailing file CRC-32C (sha256
  // b2e7e10b...) at every scan tier the host runs.  The corpus's end lines
  // interleave later starts, so a job string pool interned in fold order
  // instead of row order fails here.
  const std::string path =
      (std::filesystem::temp_directory_path() / "hpcfail_golden_pinned.snap").string();
  const auto pinned = [&](util::scan::Isa isa) {
    SCOPED_TRACE(util::scan::isa_name(isa));
    const auto error = parsers::save_snapshot(parsers::parse_corpus(*corpus_), path);
    ASSERT_FALSE(error.has_value()) << error->to_string();
    std::ifstream file(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(file),
                            std::istreambuf_iterator<char>()};
    std::filesystem::remove(path);
    ASSERT_EQ(bytes.size(), 169'020u);
    std::uint32_t crc = 0;
    std::memcpy(&crc, bytes.data() + bytes.size() - sizeof(crc), sizeof(crc));
    EXPECT_EQ(crc, 0xb429a009u);
  };
  const util::scan::Isa original = util::scan::active_isa();
  for (const util::scan::Isa isa : {util::scan::Isa::Swar, util::scan::Isa::Avx2}) {
    if (util::scan::force_isa(isa) == isa) pinned(isa);  // else the host lacks it
  }
  util::scan::force_isa(original);
}

TEST_F(GoldenCorpus, RegenerationIsExact) {
  // Re-simulating the scenario reproduces the checked-in bytes.
  std::string scenario_path;
  for (const char* candidate :
       {"../testdata/golden.scenario", "../../testdata/golden.scenario",
        "testdata/golden.scenario", "/root/repo/testdata/golden.scenario"}) {
    if (std::filesystem::exists(candidate)) {
      scenario_path = candidate;
      break;
    }
  }
  ASSERT_FALSE(scenario_path.empty());
  std::ifstream file(scenario_path);
  std::ostringstream text;
  text << file.rdbuf();
  const auto scenario = faultsim::scenario_from_string(text.str());
  const auto sim = faultsim::Simulator(scenario).run();
  const auto regenerated = loggen::build_corpus(sim);
  for (std::size_t s = 0; s < regenerated.text.size(); ++s) {
    EXPECT_EQ(regenerated.text[s], corpus_->text[s]) << "source " << s;
  }
}

}  // namespace
}  // namespace hpcfail
