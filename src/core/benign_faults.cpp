#include "core/benign_faults.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace hpcfail::core {

using logmodel::EventType;
using logmodel::LogRecord;

namespace {

/// Marks `id` in `seen` (grown to the id space on demand) and counts it in
/// `distinct` the first time.
void mark(std::vector<std::uint8_t>& seen, std::uint32_t id, std::size_t& distinct) {
  if (id >= seen.size()) seen.resize(std::size_t{id} + 1, 0);
  if (seen[id] == 0) {
    seen[id] = 1;
    ++distinct;
  }
}

}  // namespace

SedcPopulation BenignFaultAnalyzer::sedc_population(util::TimePoint begin,
                                                    util::TimePoint end) const {
  // Walks the type index of the warning and fault types only, not every
  // record of the window.
  SedcPopulation out;
  std::vector<std::uint8_t> warn_blades;
  std::vector<std::uint8_t> fault_blades;
  std::vector<std::uint8_t> fault_cabinets;
  for (std::size_t t = 0; t < logmodel::kEventTypeCount; ++t) {
    const auto type = static_cast<EventType>(t);
    const bool warning = logmodel::is_sedc_warning(type);
    if (!warning && !logmodel::is_health_fault(type)) continue;
    for (const std::uint32_t i : store_.type_range(type, begin, end)) {
      const LogRecord& r = store_[i];
      if (warning) {
        ++out.warning_count;
        if (r.has_blade()) {
          mark(warn_blades, r.blade.value, out.blades_with_warnings);
        } else if (r.has_cabinet()) {
          mark(fault_cabinets, r.cabinet.value, out.cabinets_with_faults);
        }
      } else {
        ++out.fault_count;
        if (r.has_blade()) mark(fault_blades, r.blade.value, out.blades_with_faults);
        if (r.has_cabinet()) mark(fault_cabinets, r.cabinet.value, out.cabinets_with_faults);
      }
    }
  }
  return out;
}

std::vector<BladeWarningProfile> BenignFaultAnalyzer::top_warning_blades(
    util::TimePoint day_begin, std::size_t top_k) const {
  std::unordered_map<std::uint32_t, BladeWarningProfile> profiles;
  const util::TimePoint day_end = day_begin + util::Duration::days(1);
  for (const LogRecord& r : store_.range(day_begin, day_end)) {
    if (!logmodel::is_sedc_warning(r.type) || !r.has_blade()) continue;
    auto& p = profiles[r.blade.value];
    p.blade = r.blade.value;
    ++p.hourly[static_cast<std::size_t>(r.time.hour_of_day())];
    ++p.total;
  }
  std::vector<BladeWarningProfile> out;
  out.reserve(profiles.size());
  for (auto& [blade, p] : profiles) out.push_back(std::move(p));
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.total > b.total; });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

std::vector<DailyErrorNodes> BenignFaultAnalyzer::daily_error_nodes(
    util::TimePoint begin, int days, const std::vector<AnalyzedFailure>& failures) const {
  std::vector<DailyErrorNodes> out(static_cast<std::size_t>(std::max(0, days)));
  std::vector<std::unordered_set<std::uint32_t>> hw(out.size()), mce(out.size()),
      lustre(out.size()), failed(out.size());
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d].day = (begin + util::Duration::days(static_cast<std::int64_t>(d))).day_index();
  }
  const util::TimePoint end = begin + util::Duration::days(days);
  for (const LogRecord& r : store_.range(begin, end)) {
    if (!r.has_node()) continue;
    const auto d = static_cast<std::size_t>((r.time - begin).usec /
                                            util::Duration::days(1).usec);
    if (d >= out.size()) continue;
    switch (r.type) {
      case EventType::HardwareError: hw[d].insert(r.node.value); break;
      case EventType::MachineCheckException: mce[d].insert(r.node.value); break;
      case EventType::LustreError: lustre[d].insert(r.node.value); break;
      default: break;
    }
  }
  for (const auto& f : failures) {
    const auto offset = (f.event.time - begin).usec;
    if (offset < 0) continue;
    const auto d = static_cast<std::size_t>(offset / util::Duration::days(1).usec);
    if (d < out.size()) failed[d].insert(f.event.node.value);
  }
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d].hw_error_nodes = hw[d].size();
    out[d].mce_nodes = mce[d].size();
    out[d].lustre_nodes = lustre[d].size();
    out[d].failed_nodes = failed[d].size();
  }
  return out;
}

BenignFaultAnalyzer::InterconnectSummary BenignFaultAnalyzer::interconnect_summary(
    util::TimePoint begin, util::TimePoint end,
    const std::vector<AnalyzedFailure>& failures, util::Duration near_window) const {
  InterconnectSummary out;
  out.failovers_ok = store_.type_range(EventType::LinkFailover, begin, end).size();
  out.failovers_failed =
      store_.type_range(EventType::LinkFailoverFailed, begin, end).size();
  for (const std::uint32_t idx : store_.type_range(EventType::LaneDegrade, begin, end)) {
    const LogRecord& r = store_[idx];
    ++out.lane_degrades;
    for (const auto& f : failures) {
      if (f.event.blade.value == r.blade.value &&
          std::abs((f.event.time - r.time).usec) <= near_window.usec) {
        ++out.degrades_near_failure;
        break;
      }
    }
  }
  return out;
}

double BenignFaultAnalyzer::erroring_node_failure_fraction(
    EventType type, util::TimePoint begin, util::TimePoint end, util::Duration horizon,
    const std::vector<AnalyzedFailure>& failures) const {
  // First error time per node.
  std::unordered_map<std::uint32_t, util::TimePoint> first_error;
  for (const std::uint32_t idx : store_.type_range(type, begin, end)) {
    const LogRecord& r = store_[idx];
    if (!r.has_node()) continue;
    first_error.emplace(r.node.value, r.time);  // store is time-sorted
  }
  if (first_error.empty()) return 0.0;
  std::size_t failing = 0;
  for (const auto& [node, t0] : first_error) {
    for (const auto& f : failures) {
      if (f.event.node.value == node && f.event.time >= t0 &&
          f.event.time - t0 <= horizon) {
        ++failing;
        break;
      }
    }
  }
  return static_cast<double>(failing) / static_cast<double>(first_error.size());
}

}  // namespace hpcfail::core
