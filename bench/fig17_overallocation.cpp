// Fig 17: memory over-allocation day.  Paper: 53 failures occur over just
// 16 jobs; Slurm allocated more memory than the nodes had; for jobs J5 and
// J8 every overallocated node fails, for J4/J15 only a few do; J1 and J16
// had 1 and 6 failures for 600 and 683 overallocated nodes; when any
// overallocated node fails the job dies and must be re-allocated.
#include "bench_common.hpp"
#include "core/job_analysis.hpp"
#include "faultsim/special_scenarios.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 17: over-allocation day (16 jobs)");

  const auto p = bench::run_pipeline(faultsim::overallocation_day(1717));
  const auto& parsed = p.parsed;
  const auto& failures = p.failures;

  const core::JobAnalyzer analyzer(parsed.jobs, failures);
  const auto rows = analyzer.overallocation_report();

  util::TextTable table({"Job", "allocated", "overallocated", "failed"});
  std::size_t total_failures = 0;
  std::size_t all_fail_jobs = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    table.row()
        .cell("J" + std::to_string(i + 1))
        .cell(static_cast<std::int64_t>(r.allocated))
        .cell(static_cast<std::int64_t>(r.overallocated))
        .cell(static_cast<std::int64_t>(r.failed));
    total_failures += r.failed;
    if (r.overallocated > 0 && r.failed == r.overallocated) ++all_fail_jobs;
  }
  std::cout << table.render() << '\n';

  check.in_range("jobs on the over-allocation day (paper 16)",
                 static_cast<double>(rows.size()), 16, 16);
  check.in_range("total failures (paper 53)", static_cast<double>(total_failures), 50, 56);
  check.in_range("jobs losing ALL overallocated nodes (paper: J5, J8)",
                 static_cast<double>(all_fail_jobs), 2, 2);
  if (rows.size() >= 16) {
    check.in_range("J1 failures for 600 overallocated (paper 1)",
                   static_cast<double>(rows[0].failed), 1, 1);
    check.in_range("J1 overallocated nodes (paper 600)",
                   static_cast<double>(rows[0].overallocated), 600, 600);
    check.in_range("J16 failures for 683 overallocated (paper 6)",
                   static_cast<double>(rows[15].failed), 6, 6);
    check.in_range("J16 overallocated nodes (paper 683)",
                   static_cast<double>(rows[15].overallocated), 683, 683);
  }
  // Every job with a failure dies (memory-killed) and needs re-allocation.
  std::size_t failed_jobs_dead = 0, failed_jobs = 0;
  for (const auto& job : parsed.jobs.rows()) {
    bool has_failure = false;
    for (const auto& f : failures) {
      if (f.event.job_id == job.job_id) has_failure = true;
    }
    if (!has_failure) continue;
    ++failed_jobs;
    if (job.exit_code != 0) ++failed_jobs_dead;
  }
  check.greater("every job with failed nodes dies",
                static_cast<double>(failed_jobs_dead) + 0.001,
                static_cast<double>(failed_jobs));
  return check.exit_code();
}
