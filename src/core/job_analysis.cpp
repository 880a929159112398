#include "core/job_analysis.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

namespace hpcfail::core {

std::vector<DailyJobOutcomes> JobAnalyzer::daily_outcomes(util::TimePoint begin,
                                                          int days) const {
  std::vector<DailyJobOutcomes> out(static_cast<std::size_t>(std::max(0, days)));
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d].day = (begin + util::Duration::days(static_cast<std::int64_t>(d))).day_index();
  }
  for (const auto& job : table_.rows()) {
    if (!job.ended) continue;
    const auto offset = (job.end - begin).usec;
    if (offset < 0) continue;
    const auto d = static_cast<std::size_t>(offset / util::Duration::days(1).usec);
    if (d >= out.size()) continue;
    auto& day = out[d];
    ++day.jobs;
    if (job.cancelled || job.exit_code == 130) {
      ++day.cancelled;
    } else if (job.exit_code == 0) {
      ++day.success;
    } else if (job.exit_code == 2) {
      ++day.config_error;
    } else if (job.exit_code == 137 || job.exit_code == 143) {
      ++day.node_caused;
    } else {
      ++day.nonzero;
    }
  }
  return out;
}

std::vector<SharedJobFailureGroup> JobAnalyzer::shared_job_groups(
    std::size_t min_failures) const {
  struct Group {
    std::size_t count = 0;
    std::set<std::uint32_t> blades;
    util::TimePoint first{std::numeric_limits<std::int64_t>::max()};
    util::TimePoint last{std::numeric_limits<std::int64_t>::min()};
  };
  std::map<std::int64_t, Group> groups;
  for (const auto& f : failures_) {
    if (f.event.job_id == logmodel::kNoJob) continue;
    auto& g = groups[f.event.job_id];
    ++g.count;
    if (f.event.blade.valid()) g.blades.insert(f.event.blade.value);
    g.first = std::min(g.first, f.event.time);
    g.last = std::max(g.last, f.event.time);
  }
  std::vector<SharedJobFailureGroup> out;
  for (const auto& [job_id, g] : groups) {
    if (g.count < min_failures) continue;
    SharedJobFailureGroup row;
    row.job_id = job_id;
    row.failures = g.count;
    row.distinct_blades = g.blades.size();
    row.span = g.last - g.first;
    out.push_back(row);
  }
  return out;
}

double JobAnalyzer::multi_blade_shared_job_fraction() const {
  const auto groups = shared_job_groups(2);
  std::size_t group_failures = 0;
  std::size_t multi_blade_failures = 0;
  for (const auto& g : groups) {
    group_failures += g.failures;
    if (g.distinct_blades > 1) multi_blade_failures += g.failures;
  }
  return group_failures == 0
             ? 0.0
             : static_cast<double>(multi_blade_failures) / static_cast<double>(group_failures);
}

std::vector<OverallocationRow> JobAnalyzer::overallocation_report() const {
  // Failure counts per job id.
  std::map<std::int64_t, std::size_t> failures_per_job;
  for (const auto& f : failures_) {
    if (f.event.job_id != logmodel::kNoJob) ++failures_per_job[f.event.job_id];
  }
  std::vector<const jobs::JobRow*> sorted;
  for (const auto& job : table_.rows()) sorted.push_back(&job);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->start < b->start; });

  std::vector<OverallocationRow> out;
  for (const auto* job : sorted) {
    OverallocationRow row;
    row.job_id = job->job_id;
    row.allocated = table_.nodes(*job).size();
    row.overallocated = !job->overallocated            ? 0
                        : job->overallocated_nodes > 0 ? job->overallocated_nodes
                                                       : row.allocated;
    const auto it = failures_per_job.find(job->job_id);
    row.failed = it == failures_per_job.end() ? 0 : it->second;
    out.push_back(row);
  }
  return out;
}

}  // namespace hpcfail::core
