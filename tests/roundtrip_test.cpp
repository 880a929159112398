// Round-trip property suite: simulate -> render raw text -> parse, then
// compare the parsed records against the originals.  This is the fidelity
// guarantee behind every figure bench: the analysis pipeline sees exactly
// what the simulator produced, through nothing but raw log text.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"

namespace hpcfail {
namespace {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogSource;

struct RoundTripCase {
  platform::SystemName system;
  std::uint64_t seed;
};

class RoundTrip : public ::testing::TestWithParam<RoundTripCase> {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<faultsim::SimulationResult>(
        faultsim::Simulator(faultsim::scenario_preset(GetParam().system, 3, GetParam().seed))
            .run());
    corpus_ = loggen::build_corpus(*sim_);
    parsed_ = std::make_unique<parsers::ParsedCorpus>(parsers::parse_corpus(corpus_));
  }

  /// Originals that are expected to survive the text round trip.
  [[nodiscard]] std::vector<const LogRecord*> expected_records() const {
    const bool has_external = GetParam().system != platform::SystemName::S5;
    std::vector<const LogRecord*> out;
    for (const auto& r : sim_->records) {
      if (r.source == LogSource::Scheduler) continue;  // rendered from jobs
      if (!has_external &&
          (r.source == LogSource::Controller || r.source == LogSource::Erd)) {
        continue;
      }
      out.push_back(&r);
    }
    return out;
  }

  std::unique_ptr<faultsim::SimulationResult> sim_;
  loggen::Corpus corpus_;
  std::unique_ptr<parsers::ParsedCorpus> parsed_;
};

TEST_P(RoundTrip, OnlyChatterIsSkipped) {
  // Routine chatter lines are skipped by design — and nothing else.
  EXPECT_EQ(parsed_->skipped_lines, corpus_.chatter_lines);
  EXPECT_GT(corpus_.chatter_lines, 0u);
  EXPECT_GT(parsed_->parsed_records, 0u);
}

TEST_P(RoundTrip, PerTypeCountsSurvive) {
  std::map<EventType, std::size_t> original, parsed;
  for (const auto* r : expected_records()) ++original[r->type];
  for (const auto& r : parsed_->store.records()) {
    if (r.source == LogSource::Scheduler) continue;
    ++parsed[r.type];
  }
  for (const auto& [type, count] : original) {
    EXPECT_EQ(parsed[type], count) << to_string(type);
  }
}

TEST_P(RoundTrip, RecordFieldsSurvive) {
  // Sort both sides by (time, type, location) and compare element-wise.
  // Messages-file syslog stamps truncate to seconds, so their key uses
  // second precision; every other source preserves microseconds exactly.
  auto key = [](const LogRecord& r) {
    const std::int64_t t =
        r.source == LogSource::Messages ? r.time.usec / 1'000'000 * 1'000'000 : r.time.usec;
    return std::tuple(t, static_cast<int>(r.type), r.node.value, r.blade.value,
                      r.cabinet.value);
  };
  auto originals = expected_records();
  std::vector<const LogRecord*> round_tripped;
  for (const auto& r : parsed_->store.records()) {
    if (r.source != LogSource::Scheduler) round_tripped.push_back(&r);
  }
  ASSERT_EQ(originals.size(), round_tripped.size());
  auto cmp = [&key](const LogRecord* a, const LogRecord* b) { return key(*a) < key(*b); };
  std::sort(originals.begin(), originals.end(), cmp);
  std::sort(round_tripped.begin(), round_tripped.end(), cmp);

  for (std::size_t i = 0; i < originals.size(); ++i) {
    const LogRecord& a = *originals[i];
    const LogRecord& b = *round_tripped[i];
    ASSERT_EQ(a.type, b.type) << i;
    EXPECT_EQ(a.node.value, b.node.value);
    EXPECT_EQ(a.blade.value, b.blade.value);
    EXPECT_EQ(a.cabinet.value, b.cabinet.value);
    EXPECT_EQ(a.job_id, b.job_id) << to_string(a.type);
    // Messages-file syslog stamps truncate to seconds; others are exact.
    const std::int64_t tolerance_usec =
        a.source == LogSource::Messages ? 1'000'000 : 0;
    EXPECT_LE(std::abs(a.time.usec - b.time.usec), tolerance_usec) << to_string(a.type);
    if (a.type == EventType::SedcReading) {
      EXPECT_NEAR(a.value, b.value, 5e-4);  // rendered with 3 decimals
      EXPECT_EQ(sim_->symbols.view(a.detail), parsed_->store.detail(b));
    }
    if (a.type == EventType::CallTrace) {
      // Stack module must survive exactly (the two sides intern into
      // different tables, so compare resolved text).
      EXPECT_EQ(sim_->symbols.view(a.detail), parsed_->store.detail(b));
    }
  }
}

TEST_P(RoundTrip, JobTableSurvives) {
  const jobs::JobTable original = jobs::JobTable::from_jobs(sim_->jobs);
  const jobs::JobTable& parsed = parsed_->jobs;
  ASSERT_EQ(parsed.size(), original.size());
  for (const auto& job : original.rows()) {
    const auto* back = parsed.find(job.job_id);
    ASSERT_NE(back, nullptr) << job.job_id;
    EXPECT_EQ(parsed.text(back->app), original.text(job.app));
    EXPECT_EQ(parsed.text(back->user), original.text(job.user));
    EXPECT_EQ(back->apid, job.apid);
    EXPECT_EQ(back->exit_code, job.exit_code);
    EXPECT_EQ(back->overallocated, job.overallocated);
    EXPECT_EQ(back->cancelled, job.cancelled);
    EXPECT_EQ(back->start.usec, job.start.usec);
    EXPECT_EQ(back->end.usec, job.end.usec);
    EXPECT_NEAR(back->mem_per_node_gb, job.mem_per_node_gb, 0.051);  // "%.1fG"
    // The compressed NodeList is sorted, so compare as sets.
    const auto want = original.nodes(job);
    const auto got = parsed.nodes(*back);
    std::vector<platform::NodeId> lhs(want.begin(), want.end());
    std::vector<platform::NodeId> rhs(got.begin(), got.end());
    ASSERT_EQ(rhs.size(), lhs.size());
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(rhs[i].value, lhs[i].value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, RoundTrip,
    ::testing::Values(RoundTripCase{platform::SystemName::S1, 31},
                      RoundTripCase{platform::SystemName::S2, 32},
                      RoundTripCase{platform::SystemName::S3, 33},
                      RoundTripCase{platform::SystemName::S4, 34},
                      RoundTripCase{platform::SystemName::S5, 35}));

}  // namespace
}  // namespace hpcfail
