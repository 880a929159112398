// Unit tests for core/timeline plus the detector's intended-shutdown and
// SWO exclusion (paper Section III: SWOs and intended shutdowns are
// recognized and excluded).
#include <gtest/gtest.h>

#include <string_view>
#include <tuple>
#include <vector>

#include "core/failure_detector.hpp"
#include "core/timeline.hpp"
#include "faultsim/simulator.hpp"

namespace hpcfail::core {
namespace {

using logmodel::EventType;
using logmodel::LogRecord;

const util::TimePoint kBase = util::make_time(2015, 3, 2);

/// Shared interner for the synthetic records; each store gets a copy.
logmodel::SymbolTable& test_symbols() {
  static logmodel::SymbolTable table;
  return table;
}

LogRecord rec(util::Duration offset, EventType type, std::uint32_t node,
              std::string detail = {}) {
  LogRecord r;
  r.time = kBase + offset;
  r.type = type;
  r.node = platform::NodeId{node};
  r.blade = platform::BladeId{node / 4};
  r.detail = test_symbols().intern(detail);
  return r;
}

/// (begin hour, end hour, state) of one interval, relative to kBase.
using Row = std::tuple<double, double, std::string_view>;

std::vector<Row> hours_of(const NodeTimeline& timeline) {
  std::vector<Row> out;
  for (const auto& iv : timeline.intervals) {
    out.emplace_back((iv.begin - kBase).to_hours(), (iv.end - kBase).to_hours(),
                     to_string(iv.state));
  }
  return out;
}

TEST(TimelineTest, StatesFollowMarkers) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::hours(2), EventType::KernelPanic, 1));
  records.push_back(rec(util::Duration::hours(3), EventType::NodeBoot, 1));
  records.push_back(rec(util::Duration::hours(5), EventType::NhcSuspectMode, 1));
  records.push_back(rec(util::Duration::hours(6), EventType::NodeBoot, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const TimelineBuilder builder(store, 4);
  const auto timeline =
      builder.build(platform::NodeId{1}, kBase, kBase + util::Duration::hours(10));

  EXPECT_EQ(hours_of(timeline), (std::vector<Row>{{0.0, 2.0, "Up"},
                                                  {2.0, 3.0, "Down"},
                                                  {3.0, 5.0, "Up"},
                                                  {5.0, 6.0, "Suspect"},
                                                  {6.0, 10.0, "Up"}}));
  EXPECT_DOUBLE_EQ(timeline.time_in(NodeState::Down).to_hours(), 1.0);
  EXPECT_DOUBLE_EQ(timeline.time_in(NodeState::Suspect).to_hours(), 1.0);
  EXPECT_DOUBLE_EQ(timeline.time_in(NodeState::Up).to_hours(), 8.0);
}

TEST(TimelineTest, FleetAvailability) {
  std::vector<LogRecord> records;
  // Node 1 down for 2 of 10 hours; node 2 clean.
  records.push_back(rec(util::Duration::hours(4), EventType::NodeShutdown, 1));
  records.push_back(rec(util::Duration::hours(6), EventType::NodeBoot, 1));
  records.push_back(rec(util::Duration::hours(1), EventType::HardwareError, 2));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const TimelineBuilder builder(store, 4);  // 4-node fleet
  const auto fleet =
      builder.fleet_availability(kBase, kBase + util::Duration::hours(10));
  EXPECT_NEAR(fleet.node_hours_lost, 2.0, 1e-9);
  EXPECT_NEAR(fleet.availability, 1.0 - 2.0 / 40.0, 1e-9);
  EXPECT_EQ(fleet.down_intervals, 1u);
  EXPECT_NEAR(fleet.repair_minutes.mean(), 120.0, 1e-9);
}

TEST(TimelineTest, OpenDownIntervalHasNoRepairTime) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::hours(9), EventType::KernelPanic, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const TimelineBuilder builder(store, 1);
  const auto fleet = builder.fleet_availability(kBase, kBase + util::Duration::hours(10));
  EXPECT_EQ(fleet.down_intervals, 1u);
  EXPECT_EQ(fleet.repair_minutes.count(), 0u);  // censored: no reboot seen
  EXPECT_NEAR(fleet.node_hours_lost, 1.0, 1e-9);
}

TEST(TimelineTest, SuspectThenDownThenRecovered) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::hours(1), EventType::NhcSuspectMode, 1));
  records.push_back(rec(util::Duration::hours(2), EventType::NodeHalt, 1));
  records.push_back(rec(util::Duration::hours(3), EventType::NodeBoot, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const TimelineBuilder builder(store, 4);
  const auto timeline =
      builder.build(platform::NodeId{1}, kBase, kBase + util::Duration::hours(4));
  EXPECT_EQ(hours_of(timeline), (std::vector<Row>{{0.0, 1.0, "Up"},
                                                  {1.0, 2.0, "Suspect"},
                                                  {2.0, 3.0, "Down"},
                                                  {3.0, 4.0, "Up"}}));
  EXPECT_DOUBLE_EQ(timeline.time_in(NodeState::Suspect).to_hours(), 1.0);
  EXPECT_DOUBLE_EQ(timeline.time_in(NodeState::Down).to_hours(), 1.0);
}

TEST(TimelineTest, MaintenanceShutdownIsNotDowntime) {
  std::vector<LogRecord> records;
  records.push_back(rec(util::Duration::hours(2), EventType::NodeShutdown, 1,
                        "scheduled maintenance shutdown"));
  records.push_back(rec(util::Duration::hours(6), EventType::NodeBoot, 1));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const TimelineBuilder builder(store, 1);
  const auto fleet = builder.fleet_availability(kBase, kBase + util::Duration::hours(10));
  EXPECT_DOUBLE_EQ(fleet.availability, 1.0);
  EXPECT_EQ(fleet.down_intervals, 0u);
}

TEST(DetectorExclusionTest, IntendedShutdownsExcluded) {
  std::vector<LogRecord> records;
  records.push_back(
      rec(util::Duration::hours(1), EventType::NodeShutdown, 1, "scheduled maintenance shutdown"));
  records.push_back(rec(util::Duration::hours(2), EventType::NodeShutdown, 2,
                        "anomalous shutdown"));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto detection = FailureDetector().detect_full(store, nullptr);
  EXPECT_EQ(detection.failures.size(), 1u);
  EXPECT_EQ(detection.failures[0].node.value, 2u);
  EXPECT_EQ(detection.intended_shutdowns_excluded, 1u);
}

TEST(DetectorExclusionTest, SwoClusterExcluded) {
  std::vector<LogRecord> records;
  // 80 nodes die within seconds: an SWO.
  for (std::uint32_t n = 0; n < 80; ++n) {
    records.push_back(rec(util::Duration::minutes(30) + util::Duration::seconds(n / 8),
                          EventType::NodeShutdown, n));
  }
  // A lone genuine failure hours later.
  records.push_back(rec(util::Duration::hours(5), EventType::KernelPanic, 99));
  const logmodel::LogStore store{std::move(records), test_symbols()};
  const auto detection = FailureDetector().detect_full(store, nullptr);
  ASSERT_EQ(detection.swos.size(), 1u);
  EXPECT_EQ(detection.swos[0].nodes, 80u);
  ASSERT_EQ(detection.failures.size(), 1u);
  EXPECT_EQ(detection.failures[0].node.value, 99u);
}

TEST(DetectorExclusionTest, SimulatedMaintenanceAndSwo) {
  faultsim::ScenarioConfig cfg =
      faultsim::scenario_preset(platform::SystemName::S3, 10, 4242);
  cfg.benign.maintenance_windows_per_month = 30.0;  // one per day
  cfg.benign.swo_per_month = 15.0;
  const auto sim = faultsim::Simulator(cfg).run();
  ASSERT_GT(sim.truth.benign.intended_shutdown_nodes, 0u);
  ASSERT_GT(sim.truth.benign.swo_events, 0u);

  const auto store = sim.make_store();
  const auto detection = FailureDetector().detect_full(store, nullptr);
  EXPECT_EQ(detection.intended_shutdowns_excluded,
            sim.truth.benign.intended_shutdown_nodes);
  EXPECT_GE(detection.swos.size(), 1u);
  // Node-failure count stays near the planted count despite the hundreds
  // of SWO/maintenance shutdowns.
  EXPECT_LE(detection.failures.size(), sim.truth.failures.size() + 25);
}

}  // namespace
}  // namespace hpcfail::core
