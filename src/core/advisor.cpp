#include "core/advisor.hpp"

#include <map>

namespace hpcfail::core {

using logmodel::RootCause;

std::string_view to_string(Action a) noexcept {
  switch (a) {
    case Action::QuarantineNode: return "QuarantineNode";
    case Action::ScheduleHwService: return "ScheduleHwService";
    case Action::RebootOnly: return "RebootOnly";
    case Action::NotifyUser: return "NotifyUser";
    case Action::BlockApplication: return "BlockApplication";
    case Action::CapJobMemory: return "CapJobMemory";
    case Action::EscalateVendor: return "EscalateVendor";
    case Action::TuneHealthChecker: return "TuneHealthChecker";
  }
  return "?";
}

Recommendation MitigationAdvisor::advise_one(const AnalyzedFailure& failure,
                                             const jobs::JobRow* job) const {
  Recommendation rec;
  switch (failure.inference.cause) {
    case RootCause::FailSlowHardware:
      rec.primary = Action::ScheduleHwService;
      rec.secondary = {Action::QuarantineNode};
      rec.explanation =
          "fail-slow hardware: external indicators gave warning; replace the part "
          "before the next hard failure";
      break;
    case RootCause::HardwareMce:
      rec.primary = Action::QuarantineNode;
      rec.secondary = {Action::ScheduleHwService};
      rec.explanation = "fail-stop machine check: keep the node out until serviced";
      break;
    case RootCause::KernelBug:
      rec.primary = Action::RebootOnly;
      rec.secondary = {Action::TuneHealthChecker};
      rec.explanation = "kernel bug trips only under the triggering workload; reboot and "
                        "track the signature";
      break;
    case RootCause::LustreBug:
      rec.primary = Action::RebootOnly;
      rec.secondary = {Action::NotifyUser, Action::TuneHealthChecker};
      rec.checkpoint_restart_useful = true;
      rec.explanation = "application-triggered file-system bug: the node recovers once a "
                        "new job runs; no quarantine";
      break;
    case RootCause::MemoryExhaustion:
      rec.primary = job != nullptr && job->overallocated ? Action::CapJobMemory
                                                         : Action::NotifyUser;
      rec.secondary = {Action::RebootOnly};
      rec.checkpoint_restart_useful = false;
      rec.explanation = job != nullptr && job->overallocated
                            ? "scheduler over-committed memory: fix limits, do not blame "
                              "the node"
                            : "job exhausted node memory: inform the user; restarting the "
                              "same job reproduces the failure";
      break;
    case RootCause::AppAbnormalExit:
      rec.primary = Action::NotifyUser;
      rec.secondary = {Action::RebootOnly};
      rec.checkpoint_restart_useful = false;
      rec.explanation = "abnormal application exit turned the node down; the node is "
                        "healthy — the job is not";
      break;
    case RootCause::BiosUnknown:
    case RootCause::L0SysdMceUnknown:
      rec.primary = Action::EscalateVendor;
      rec.secondary = {Action::QuarantineNode};
      rec.explanation = "pattern with no deducible cause (Observation 9): needs "
                        "vendor/operator support";
      break;
    case RootCause::OperatorError:
      rec.primary = Action::RebootOnly;
      rec.explanation = "bare shutdown without anomaly; likely manual action";
      break;
    default:
      rec.primary = Action::EscalateVendor;
      rec.explanation = "insufficient evidence";
      break;
  }
  return rec;
}

std::vector<Recommendation> MitigationAdvisor::advise(
    const std::vector<AnalyzedFailure>& failures, const jobs::JobTable* jobs) const {
  // Repeat-offender detection: job ids with many failures get their
  // application blocked (Table VI: "buggy jobs can be blocked by NHC").
  std::map<std::int64_t, std::size_t> failures_per_job;
  for (const auto& f : failures) {
    if (f.event.job_id != logmodel::kNoJob) ++failures_per_job[f.event.job_id];
  }

  std::vector<Recommendation> out;
  out.reserve(failures.size());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const auto& f = failures[i];
    const jobs::JobRow* job =
        jobs != nullptr && f.event.job_id != logmodel::kNoJob ? jobs->find(f.event.job_id)
                                                              : nullptr;
    Recommendation rec = advise_one(f, job);
    rec.failure_index = i;
    if (f.inference.application_triggered && f.event.job_id != logmodel::kNoJob &&
        failures_per_job[f.event.job_id] >= config_.repeat_offender_failures) {
      rec.secondary.insert(rec.secondary.begin(), rec.primary);
      rec.primary = Action::BlockApplication;
      rec.explanation += "; repeat offender (" +
                         std::to_string(failures_per_job[f.event.job_id]) +
                         " failures under this job id)";
    }
    out.push_back(std::move(rec));
  }
  return out;
}

ActionSummary summarize_actions(const std::vector<Recommendation>& recs,
                                const std::vector<AnalyzedFailure>& failures) {
  ActionSummary out;
  std::size_t app_triggered = 0;
  for (const auto& rec : recs) {
    ++out.counts[static_cast<std::size_t>(rec.primary)];
    ++out.total;
    if (rec.failure_index < failures.size() &&
        failures[rec.failure_index].inference.application_triggered) {
      ++app_triggered;
    }
  }
  out.quarantine_waste_fraction =
      out.total ? static_cast<double>(app_triggered) / static_cast<double>(out.total) : 0.0;
  return out;
}

}  // namespace hpcfail::core
