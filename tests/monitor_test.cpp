// Unit tests for core/online_monitor: streaming alerts, cooldowns, and
// agreement with the offline pipeline on a simulated corpus.
#include <gtest/gtest.h>

#include "core/analysis_context.hpp"
#include "core/online_monitor.hpp"
#include "core/root_cause.hpp"
#include "faultsim/simulator.hpp"

namespace hpcfail::core {
namespace {

using logmodel::EventType;
using logmodel::LogRecord;

const util::TimePoint kBase = util::make_time(2015, 3, 2);

LogRecord rec(util::Duration offset, EventType type, std::uint32_t node) {
  LogRecord r;
  r.time = kBase + offset;
  r.type = type;
  r.node = platform::NodeId{node};
  r.blade = platform::BladeId{node / 4};
  return r;
}

/// None of the synthetic records carries detail text, so the resolved
/// detail fed to the monitor is always empty.
std::vector<Alert> feed(OnlineMonitor& monitor, const LogRecord& r) {
  return monitor.ingest(r, {});
}

TEST(MonitorTest, PatternWarningThenConfirmation) {
  OnlineMonitor monitor;
  EXPECT_TRUE(feed(monitor, rec(util::Duration::minutes(1), EventType::HardwareError, 1))
                  .empty());
  const auto warn =
      feed(monitor, rec(util::Duration::minutes(3), EventType::MachineCheckException, 1));
  ASSERT_EQ(warn.size(), 1u);
  EXPECT_EQ(warn[0].kind, AlertKind::PatternWarning);

  const auto confirmed =
      feed(monitor, rec(util::Duration::minutes(6), EventType::KernelPanic, 1));
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0].kind, AlertKind::FailureConfirmed);
  EXPECT_EQ(confirmed[0].suspected, logmodel::RootCause::HardwareMce);

  // Duplicate markers do not re-alert; the reboot closes the episode.
  EXPECT_TRUE(feed(monitor, rec(util::Duration::minutes(7), EventType::NodeShutdown, 1))
                  .empty());
  const auto recovered =
      feed(monitor, rec(util::Duration::minutes(30), EventType::NodeBoot, 1));
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].kind, AlertKind::NodeRecovered);
}

TEST(MonitorTest, ExternalUpgradesWarning) {
  OnlineMonitor monitor;
  LogRecord ec = rec(util::Duration::minutes(0), EventType::EcHwError, 1);
  ec.node = platform::NodeId{};  // blade-scoped
  (void)feed(monitor, ec);
  (void)feed(monitor, rec(util::Duration::minutes(5), EventType::HardwareError, 1));
  const auto alerts =
      feed(monitor, rec(util::Duration::minutes(7), EventType::MachineCheckException, 1));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::ExternalEarlyWarning);
  EXPECT_EQ(alerts[0].suspected, logmodel::RootCause::FailSlowHardware);
}

TEST(MonitorTest, WarningCooldownSuppressesRepeats) {
  OnlineMonitor monitor;
  (void)feed(monitor, rec(util::Duration::minutes(0), EventType::LustreError, 2));
  const auto first =
      feed(monitor, rec(util::Duration::minutes(1), EventType::DvsError, 2));
  ASSERT_EQ(first.size(), 1u);
  // More pattern hits within the cooldown stay silent.
  EXPECT_TRUE(
      feed(monitor, rec(util::Duration::minutes(2), EventType::LustreError, 2)).empty());
  EXPECT_TRUE(
      feed(monitor, rec(util::Duration::minutes(3), EventType::DvsError, 2)).empty());
}

TEST(MonitorTest, SingleTypeBurstNeverWarns) {
  OnlineMonitor monitor;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        feed(monitor, rec(util::Duration::minutes(i), EventType::LustreError, 3)).empty());
  }
}

TEST(MonitorTest, EvidenceMemoryExpires) {
  OnlineMonitor monitor;
  (void)feed(monitor, rec(util::Duration::minutes(0), EventType::HardwareError, 4));
  // 40 minutes later (beyond evidence memory AND pattern window): the
  // earlier record cannot pair into a pattern.
  EXPECT_TRUE(
      feed(monitor, rec(util::Duration::minutes(40), EventType::MachineCheckException, 4))
          .empty());
}

TEST(MonitorTest, ExternalMemoryExpires) {
  OnlineMonitor monitor;
  LogRecord ec = rec(util::Duration::minutes(0), EventType::EcHwError, 5);
  ec.node = platform::NodeId{};
  (void)feed(monitor, ec);
  // Two hours later the external indicator has aged out: the pattern only
  // rates a plain warning.
  (void)feed(monitor, rec(util::Duration::minutes(125), EventType::HardwareError, 5));
  const auto alerts = feed(
      monitor, rec(util::Duration::minutes(127), EventType::MachineCheckException, 5));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::PatternWarning);
}

TEST(MonitorTest, DiagnosisUsesAccumulatedEvidence) {
  OnlineMonitor monitor;
  (void)feed(monitor, rec(util::Duration::minutes(1), EventType::PageAllocationFailure, 6));
  (void)feed(monitor, rec(util::Duration::minutes(2), EventType::OomKill, 6));
  const auto confirmed =
      feed(monitor, rec(util::Duration::minutes(5), EventType::NodeHalt, 6));
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0].suspected, logmodel::RootCause::MemoryExhaustion);
}

TEST(MonitorTest, AgreesWithOfflinePipeline) {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S3, 7, 2024)).run();
  const auto store = sim.make_store();

  OnlineMonitor monitor;
  const auto alerts = monitor.ingest_all(store);
  std::size_t confirmed = 0, warnings = 0;
  for (const auto& a : alerts) {
    confirmed += a.kind == AlertKind::FailureConfirmed;
    warnings += a.kind == AlertKind::PatternWarning ||
                a.kind == AlertKind::ExternalEarlyWarning;
  }
  const AnalysisContext offline_ctx(store, nullptr);
  const auto& offline = offline_ctx.failures();
  // Streaming confirmations track offline detections (SWO exclusion is an
  // offline-only post-pass, so allow a margin).
  EXPECT_NEAR(static_cast<double>(confirmed), static_cast<double>(offline.size()),
              static_cast<double>(offline.size()) * 0.15 + 3.0);
  EXPECT_GT(warnings, 0u);

  // Warnings precede most hardware confirmations (lead time exists).
  std::size_t hw_confirmed = 0, hw_pre_warned = 0;
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    const auto& a = alerts[i];
    if (a.kind != AlertKind::FailureConfirmed) continue;
    if (a.suspected != logmodel::RootCause::HardwareMce &&
        a.suspected != logmodel::RootCause::FailSlowHardware) {
      continue;
    }
    ++hw_confirmed;
    for (std::size_t j = 0; j < i; ++j) {
      if (alerts[j].node == a.node &&
          (alerts[j].kind == AlertKind::PatternWarning ||
           alerts[j].kind == AlertKind::ExternalEarlyWarning) &&
          a.time - alerts[j].time <= util::Duration::hours(1)) {
        ++hw_pre_warned;
        break;
      }
    }
  }
  if (hw_confirmed > 0) {
    EXPECT_GT(static_cast<double>(hw_pre_warned) / static_cast<double>(hw_confirmed), 0.6);
  }
}

}  // namespace
}  // namespace hpcfail::core
