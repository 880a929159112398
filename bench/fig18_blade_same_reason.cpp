// Fig 18: fraction of blade failures sharing the same failure reason, S1
// and S2 over 7 weeks.  Paper: when whole blades fail, the manifested
// symptoms are usually the same (hardware faults or application-triggered
// software faults); week-to-week errors stay within +/-7.2 (percentage
// points), i.e. temporal locality of root cause is consistent
// (Observation 8).
#include "bench_common.hpp"
#include "core/spatial.hpp"
#include "stats/summary.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 18: same-reason blade failures (S1+S2, 7 weeks)");

  util::TextTable table({"System", "Week", "blade groups", "same-reason fraction"});
  for (const auto sys : {platform::SystemName::S1, platform::SystemName::S2}) {
    const auto p = bench::run_system(sys, 49, 1818);
    const core::SpatialAnalyzer spatial(p.parsed.store);

    stats::StreamingStats weekly;
    for (int week = 0; week < 7; ++week) {
      const util::TimePoint begin = p.sim.config.begin + util::Duration::days(week * 7);
      const util::TimePoint end = begin + util::Duration::days(7);
      std::vector<core::AnalyzedFailure> in_week;
      for (const auto& f : p.failures) {
        if (f.event.time >= begin && f.event.time < end) in_week.push_back(f);
      }
      const auto groups = spatial.blade_groups(in_week, 2);
      const double fraction = core::SpatialAnalyzer::same_reason_fraction(groups);
      if (!groups.empty()) weekly.add(fraction);
      table.row()
          .cell(platform::to_string(sys))
          .cell("W" + std::to_string(week + 1))
          .cell(static_cast<std::int64_t>(groups.size()))
          .pct(fraction);
    }
    check.in_range(platform::to_string(sys) + ": mean same-reason fraction (paper: high)",
                   weekly.mean(), 0.65, 1.0);
    check.in_range(platform::to_string(sys) +
                       ": week-to-week spread (paper error <= +/-7.2pp)",
                   weekly.stddev() * 100.0, 0.0, 20.0);
  }
  std::cout << table.render() << '\n';
  return check.exit_code();
}
