// Fig 7: fraction of failures belonging to "faulty" blades and cabinets
// (those that elicited warnings or faults around the failure), over 2
// months.  Paper: 23-59% of failures on faulty blades, 19-58% on faulty
// cabinets — a weak correlation; blade/cabinet health alone does not
// explain failures (Observation 2/3).
#include "bench_common.hpp"
#include "core/spatial.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 7: failures on faulty blades/cabinets (S1+S2, 2 months)");

  util::TextTable table({"System", "Month", "Failures", "on faulty blade", "on faulty cabinet"});
  for (const auto sys : {platform::SystemName::S1, platform::SystemName::S2}) {
    const auto p = bench::run_system(sys, 60, 707);
    const core::SpatialAnalyzer spatial(p.parsed.store);
    for (int month = 0; month < 2; ++month) {
      const util::TimePoint begin = p.sim.config.begin + util::Duration::days(month * 30);
      const auto attribution =
          spatial.attribute(p.failures, begin, begin + util::Duration::days(30));
      table.row()
          .cell(platform::to_string(sys))
          .cell("M" + std::to_string(month + 1))
          .cell(static_cast<std::int64_t>(attribution.failures))
          .pct(attribution.blade_fraction())
          .pct(attribution.cabinet_fraction());
      check.in_range(platform::to_string(sys) + " M" + std::to_string(month + 1) +
                         ": faulty-blade fraction (paper 23-59%)",
                     attribution.blade_fraction(), 0.15, 0.70);
      check.in_range(platform::to_string(sys) + " M" + std::to_string(month + 1) +
                         ": faulty-cabinet fraction (paper 19-58%)",
                     attribution.cabinet_fraction(), 0.12, 0.70);
    }
  }
  std::cout << table.render() << '\n';
  return check.exit_code();
}
