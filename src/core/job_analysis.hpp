// Application-triggered failure analysis (Section III-E, Figs 12, 15-17,
// 19; Observations 6 and 8): job exit-code distributions, shared-job
// temporal locality of failures, and the memory over-allocation postmortem.
#pragma once

#include <cstdint>
#include <vector>

#include "core/root_cause.hpp"
#include "jobs/job_table.hpp"

namespace hpcfail::core {

/// Fig 12: exit-code classes of jobs ending on one day.
struct DailyJobOutcomes {
  std::int64_t day = 0;
  std::size_t jobs = 0;
  std::size_t success = 0;        ///< exit 0
  std::size_t nonzero = 0;        ///< app returned non-zero (bugs/bad input)
  std::size_t config_error = 0;   ///< wall-time/memory-limit/user config
  std::size_t cancelled = 0;
  std::size_t node_caused = 0;    ///< killed by node problems (137/143)
  [[nodiscard]] double success_fraction() const noexcept {
    return jobs ? static_cast<double>(success) / static_cast<double>(jobs) : 0.0;
  }
  [[nodiscard]] double nonzero_fraction() const noexcept {
    return jobs ? static_cast<double>(nonzero) / static_cast<double>(jobs) : 0.0;
  }
};

/// A group of failures sharing one job id within a short window
/// (Observation 8's temporal locality under a shared application).
struct SharedJobFailureGroup {
  std::int64_t job_id = 0;
  std::size_t failures = 0;
  std::size_t distinct_blades = 0;
  util::Duration span{};  ///< first to last failure in the group
};

/// Fig 17 row: one job of the over-allocation day.
struct OverallocationRow {
  std::int64_t job_id = 0;
  std::size_t allocated = 0;
  std::size_t overallocated = 0;  ///< 0 when the job was not overallocated
  std::size_t failed = 0;
};

class JobAnalyzer {
 public:
  JobAnalyzer(const jobs::JobTable& table, const std::vector<AnalyzedFailure>& failures)
      : table_(table), failures_(failures) {}

  [[nodiscard]] std::vector<DailyJobOutcomes> daily_outcomes(util::TimePoint begin,
                                                             int days) const;

  /// Groups failures by attributed job id; only groups with >= min_failures
  /// within the job's run qualify.
  [[nodiscard]] std::vector<SharedJobFailureGroup> shared_job_groups(
      std::size_t min_failures = 2) const;

  /// Fraction of failures carrying a job attribution whose group spans
  /// multiple blades — "spatially distant, temporally local".
  [[nodiscard]] double multi_blade_shared_job_fraction() const;

  /// Fig 17: per-job allocated / overallocated / failed counts, jobs in
  /// start order.
  [[nodiscard]] std::vector<OverallocationRow> overallocation_report() const;

 private:
  const jobs::JobTable& table_;
  const std::vector<AnalyzedFailure>& failures_;
};

}  // namespace hpcfail::core
