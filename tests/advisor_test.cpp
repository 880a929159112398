// Unit tests for core/advisor: cause -> action mapping, repeat offenders,
// and the quarantine-waste summary.
#include <gtest/gtest.h>

#include "core/advisor.hpp"

namespace hpcfail::core {
namespace {

using logmodel::RootCause;

AnalyzedFailure failure_with(RootCause cause, std::int64_t job = logmodel::kNoJob) {
  AnalyzedFailure f;
  f.event.node = platform::NodeId{1};
  f.event.time = util::make_time(2015, 3, 2, 12);
  f.event.job_id = job;
  f.inference.cause = cause;
  f.inference.application_triggered = logmodel::is_application_triggered(cause);
  return f;
}

class AdvisorMapping : public ::testing::TestWithParam<std::pair<RootCause, Action>> {};

TEST_P(AdvisorMapping, CauseMapsToPrimaryAction) {
  const MitigationAdvisor advisor;
  const auto rec = advisor.advise_one(failure_with(GetParam().first), nullptr);
  EXPECT_EQ(rec.primary, GetParam().second);
  EXPECT_FALSE(rec.explanation.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Causes, AdvisorMapping,
    ::testing::Values(std::pair{RootCause::FailSlowHardware, Action::ScheduleHwService},
                      std::pair{RootCause::HardwareMce, Action::QuarantineNode},
                      std::pair{RootCause::KernelBug, Action::RebootOnly},
                      std::pair{RootCause::LustreBug, Action::RebootOnly},
                      std::pair{RootCause::MemoryExhaustion, Action::NotifyUser},
                      std::pair{RootCause::AppAbnormalExit, Action::NotifyUser},
                      std::pair{RootCause::BiosUnknown, Action::EscalateVendor},
                      std::pair{RootCause::L0SysdMceUnknown, Action::EscalateVendor},
                      std::pair{RootCause::OperatorError, Action::RebootOnly}));

TEST(AdvisorTest, OverallocatedJobGetsMemoryCap) {
  const MitigationAdvisor advisor;
  jobs::JobRow job;
  job.job_id = 5;
  job.overallocated = 1;
  const auto rec = advisor.advise_one(failure_with(RootCause::MemoryExhaustion, 5), &job);
  EXPECT_EQ(rec.primary, Action::CapJobMemory);
  EXPECT_FALSE(rec.checkpoint_restart_useful);
}

TEST(AdvisorTest, RepeatOffenderBlocked) {
  MitigationAdvisor advisor(AdvisorConfig{.repeat_offender_failures = 3});
  std::vector<AnalyzedFailure> failures;
  for (int i = 0; i < 4; ++i) failures.push_back(failure_with(RootCause::LustreBug, 77));
  failures.push_back(failure_with(RootCause::LustreBug, 88));  // only one failure
  const auto recs = advisor.advise(failures, nullptr);
  ASSERT_EQ(recs.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(recs[static_cast<std::size_t>(i)].primary, Action::BlockApplication);
  }
  EXPECT_EQ(recs[4].primary, Action::RebootOnly);
}

TEST(AdvisorTest, CheckpointRestartFlag) {
  const MitigationAdvisor advisor;
  EXPECT_TRUE(
      advisor.advise_one(failure_with(RootCause::HardwareMce), nullptr).checkpoint_restart_useful);
  // Restarting from checkpoint reproduces an application-caused failure.
  EXPECT_FALSE(advisor.advise_one(failure_with(RootCause::AppAbnormalExit), nullptr)
                   .checkpoint_restart_useful);
}

TEST(AdvisorTest, SummaryCountsAndWasteFraction) {
  const MitigationAdvisor advisor;
  std::vector<AnalyzedFailure> failures = {
      failure_with(RootCause::HardwareMce),
      failure_with(RootCause::MemoryExhaustion, 1),
      failure_with(RootCause::AppAbnormalExit, 2),
      failure_with(RootCause::LustreBug, 3),
  };
  const auto recs = advisor.advise(failures, nullptr);
  const auto summary = summarize_actions(recs, failures);
  EXPECT_EQ(summary.total, 4u);
  EXPECT_EQ(summary.counts[static_cast<std::size_t>(Action::QuarantineNode)], 1u);
  EXPECT_EQ(summary.counts[static_cast<std::size_t>(Action::NotifyUser)], 2u);
  // 3 of 4 were application-triggered: quarantining them would waste nodes.
  EXPECT_DOUBLE_EQ(summary.quarantine_waste_fraction, 0.75);
}

TEST(AdvisorTest, ActionNames) {
  for (int a = 0; a < 8; ++a) {
    EXPECT_NE(to_string(static_cast<Action>(a)), "?");
  }
}

}  // namespace
}  // namespace hpcfail::core
