// Mitigation advisor: turns a diagnosed failure into the recommended
// operator action, following the paper's Table VI findings/recommendations
// and the Discussion section.  The central lesson is that the right action
// depends on the root cause — quarantining a node whose "fault" was the
// application wastes capacity, while rebooting fail-slow hardware without
// flagging it guarantees recurrence.
#pragma once

#include <string>
#include <vector>

#include "core/job_analysis.hpp"
#include "core/leadtime.hpp"
#include "core/root_cause.hpp"

namespace hpcfail::core {

enum class Action : std::uint8_t {
  QuarantineNode,      ///< keep the node out of the pool pending hardware service
  ScheduleHwService,   ///< fail-slow: plan replacement before the hard failure
  RebootOnly,          ///< transient; return to service after reboot
  NotifyUser,          ///< application-caused: inform the job's owner
  BlockApplication,    ///< repeat-offender APID: block/hold the application
  CapJobMemory,        ///< over-allocation: fix the request/scheduler limits
  EscalateVendor,      ///< undiagnosable pattern: needs vendor/operator input
  TuneHealthChecker,   ///< NHC should add a test for this signature
};

[[nodiscard]] std::string_view to_string(Action a) noexcept;

struct Recommendation {
  std::size_t failure_index = 0;  ///< into the analyzed-failure list
  Action primary = Action::RebootOnly;
  std::vector<Action> secondary;
  bool checkpoint_restart_useful = true;  ///< C/R helps unless the app is at fault
  std::string explanation;
};

struct AdvisorConfig {
  /// A job id with at least this many failures is a repeat offender.
  std::size_t repeat_offender_failures = 4;
};

class MitigationAdvisor {
 public:
  explicit MitigationAdvisor(AdvisorConfig config = {}) : config_(config) {}

  /// Recommendations for every failure; indexes parallel `failures`.
  /// `jobs` may be null (no over-allocation / repeat-offender context).
  [[nodiscard]] std::vector<Recommendation> advise(
      const std::vector<AnalyzedFailure>& failures, const jobs::JobTable* jobs) const;

  /// One failure in isolation (no cross-failure repeat-offender logic).
  [[nodiscard]] Recommendation advise_one(const AnalyzedFailure& failure,
                                          const jobs::JobRow* job) const;

 private:
  AdvisorConfig config_;
};

/// Fleet-level summary: how many failures fall under each action.
struct ActionSummary {
  std::array<std::size_t, 8> counts{};
  std::size_t total = 0;
  /// Fraction of failures where quarantining would have been the WRONG
  /// call (application-triggered; the paper's headline recommendation).
  double quarantine_waste_fraction = 0.0;
};

[[nodiscard]] ActionSummary summarize_actions(const std::vector<Recommendation>& recs,
                                              const std::vector<AnalyzedFailure>& failures);

}  // namespace hpcfail::core
