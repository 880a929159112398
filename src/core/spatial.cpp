#include "core/spatial.hpp"

#include <algorithm>
#include <map>

namespace hpcfail::core {

using logmodel::LogRecord;

namespace {

/// A blade/cabinet is "faulty" for a failure when it logged any health
/// fault or SEDC warning within +/- this window around the failure.
constexpr util::Duration kFaultWindow = util::Duration::hours(6);

}  // namespace

bool SpatialAnalyzer::blade_faulty_near(platform::BladeId blade, util::TimePoint t) const {
  for (const std::uint32_t idx :
       store_.blade_range(blade, t - kFaultWindow, t + kFaultWindow)) {
    const LogRecord& r = store_[idx];
    // Only controller/ERD-visible health signals count; the failing node's
    // own internal records (and its post-mortem NHF) must not make the
    // blade trivially "faulty".
    if (r.type == logmodel::EventType::NodeHeartbeatFault) continue;
    if (logmodel::is_health_fault(r.type) || logmodel::is_sedc_warning(r.type)) return true;
  }
  return false;
}

bool SpatialAnalyzer::cabinet_faulty_near(platform::CabinetId cabinet,
                                          util::TimePoint t) const {
  for (const std::uint32_t idx :
       store_.cabinet_range(cabinet, t - kFaultWindow, t + kFaultWindow)) {
    const LogRecord& r = store_[idx];
    if (r.has_blade() || r.has_node()) continue;  // count cabinet-scoped faults only
    if (logmodel::is_health_fault(r.type) || logmodel::is_sedc_warning(r.type)) return true;
  }
  return false;
}

SpatialAttribution SpatialAnalyzer::attribute(const std::vector<AnalyzedFailure>& failures,
                                              util::TimePoint begin,
                                              util::TimePoint end) const {
  SpatialAttribution out;
  for (const auto& f : failures) {
    if (f.event.time < begin || f.event.time >= end) continue;
    ++out.failures;
    if (blade_faulty_near(f.event.blade, f.event.time)) ++out.on_faulty_blade;
    if (cabinet_faulty_near(f.event.cabinet, f.event.time)) ++out.on_faulty_cabinet;
  }
  return out;
}

std::vector<BladeFailureGroup> SpatialAnalyzer::blade_groups(
    const std::vector<AnalyzedFailure>& failures, std::size_t min_failures) const {
  std::map<std::pair<std::uint32_t, std::int64_t>,
           std::array<std::size_t, logmodel::kRootCauseCount>>
      counts;
  for (const auto& f : failures) {
    if (!f.event.blade.valid()) continue;
    auto& c = counts[{f.event.blade.value, f.event.time.day_index()}];
    ++c[static_cast<std::size_t>(f.inference.cause)];
  }
  std::vector<BladeFailureGroup> out;
  for (const auto& [key, c] : counts) {
    BladeFailureGroup g;
    g.blade = platform::BladeId{key.first};
    g.day = key.second;
    std::size_t distinct = 0;
    std::size_t best = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      g.failures += c[i];
      if (c[i] > 0) ++distinct;
      if (c[i] > best) {
        best = c[i];
        g.dominant = static_cast<logmodel::RootCause>(i);
      }
    }
    g.same_reason = distinct == 1;
    if (g.failures >= min_failures) out.push_back(g);
  }
  return out;
}

double SpatialAnalyzer::same_reason_fraction(
    const std::vector<BladeFailureGroup>& groups) noexcept {
  if (groups.empty()) return 0.0;
  const auto same = static_cast<double>(
      std::count_if(groups.begin(), groups.end(),
                    [](const BladeFailureGroup& g) { return g.same_reason; }));
  return same / static_cast<double>(groups.size());
}

}  // namespace hpcfail::core
