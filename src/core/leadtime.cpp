#include "core/leadtime.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/thread_pool.hpp"

namespace hpcfail::core {

using logmodel::EventType;
using logmodel::LogRecord;

namespace {

/// The external indicator must precede the first internal indicator by at
/// least this much to count as an enhancement.
constexpr util::Duration kMinGain = util::Duration::seconds(30);
/// Paper: "the early indicators were absent during normal operation".
/// An indicator only counts when its type was quiet on the blade over
/// this reference window preceding the search window; this rejects the
/// ambient warning storms of deviant blades.
constexpr util::Duration kQuietWindow = util::Duration::hours(6);

}  // namespace

LeadTimeAnalyzer::LeadTimeAnalyzer(const logmodel::LogStore& store, LeadTimeConfig config)
    : store_(store), config_(config) {}

bool LeadTimeAnalyzer::quiet_before(platform::BladeId blade, platform::NodeId node,
                                    logmodel::EventType type,
                                    util::TimePoint window_start) const {
  for (const std::uint32_t idx : store_.blade_range(
           blade, window_start - kQuietWindow, window_start)) {
    const LogRecord& r = store_[idx];
    if (r.type != type) continue;
    if (r.has_node() && r.node != node) continue;
    return false;  // the indicator is ambient on this blade, not an anomaly
  }
  return true;
}

std::optional<util::TimePoint> LeadTimeAnalyzer::earliest_external(
    platform::NodeId node, platform::BladeId blade, util::TimePoint t) const {
  const util::TimePoint begin = t - config_.external_lookback;
  // The blade index is time-ordered, so the first indicator that passes is
  // the earliest.
  for (const std::uint32_t idx : store_.blade_range(blade, begin, t)) {
    const LogRecord& r = store_[idx];
    if (!logmodel::is_external_indicator(r.type)) continue;
    // NHFs trail node death; they confirm but never lead, so they cannot
    // open the window.
    if (r.type == EventType::NodeHeartbeatFault) continue;
    // Node-scoped indicators must be for this node.
    if (r.has_node() && r.node != node) continue;
    if (!quiet_before(blade, node, r.type, begin)) continue;  // ambient, not an anomaly
    return r.time;
  }
  return std::nullopt;
}

std::vector<FailureLeadTime> LeadTimeAnalyzer::lead_times(
    const std::vector<AnalyzedFailure>& failures, util::ThreadPool* pool) const {
  std::vector<FailureLeadTime> out(failures.size());
  const auto attribute = [&](std::size_t i) {
    const auto& f = failures[i];
    FailureLeadTime lt;
    lt.failure_index = i;
    lt.internal_lead = f.event.time - f.event.first_internal;
    if (const auto external = earliest_external(f.event.node, f.event.blade, f.event.time)) {
      const util::Duration external_lead = f.event.time - *external;
      if (external_lead - lt.internal_lead >= kMinGain) {
        lt.external_lead = external_lead;
      }
    }
    out[i] = lt;
  };
  // Each attribution reads only the immutable store and writes its own
  // slot, so the sharded path assembles index-ordered and is identical to
  // the serial loop.
  if (pool != nullptr && failures.size() > 1) {
    pool->parallel_for(failures.size(), attribute);
  } else {
    for (std::size_t i = 0; i < failures.size(); ++i) attribute(i);
  }
  return out;
}

LeadTimeSummary LeadTimeAnalyzer::summarize(
    const std::vector<AnalyzedFailure>& failures) const {
  return summarize_lead_times(lead_times(failures));
}

LeadTimeSummary LeadTimeAnalyzer::summarize_lead_times(
    const std::vector<FailureLeadTime>& lead_times) {
  LeadTimeSummary out;
  for (const auto& lt : lead_times) {
    ++out.failures;
    out.internal_minutes.add(lt.internal_lead.to_minutes());
    if (lt.enhanceable()) {
      ++out.enhanceable;
      out.internal_minutes_enh.add(lt.internal_lead.to_minutes());
      out.external_minutes.add(lt.external_lead->to_minutes());
    }
  }
  return out;
}

PredictorEvaluation LeadTimeAnalyzer::evaluate_predictor(
    const std::vector<AnalyzedFailure>& failures, bool require_external,
    util::Duration horizon, util::Duration pattern_window) const {
  // Failure times per node, for outcome checks.
  std::unordered_map<std::uint32_t, std::vector<util::TimePoint>> failure_times;
  for (const auto& f : failures) {
    failure_times[f.event.node.value].push_back(f.event.time);
  }

  PredictorEvaluation out;
  // Walk every node's records; flag when two indicative records of
  // different types land within pattern_window (dedup per horizon).
  for (const auto node : store_.nodes()) {
    const auto idx = store_.node_index(node);
    util::TimePoint last_flag;
    bool flagged_before = false;
    util::TimePoint prev_time;
    logmodel::EventType prev_type = logmodel::EventType::NodeBoot;
    bool prev_valid = false;
    for (const std::uint32_t i : idx) {
      const LogRecord& r = store_[i];
      if (!logmodel::is_internal_indicator(r.type)) continue;
      const bool pattern = prev_valid && r.type != prev_type &&
                           r.time - prev_time <= pattern_window;
      prev_valid = true;
      prev_time = r.time;
      prev_type = r.type;
      if (!pattern) continue;
      if (flagged_before && r.time - last_flag < horizon) continue;  // same episode
      flagged_before = true;
      last_flag = r.time;
      if (require_external && !earliest_external(node, r.blade, r.time).has_value()) {
        continue;
      }
      ++out.flagged;
      bool failed = false;
      const auto ft = failure_times.find(node.value);
      if (ft != failure_times.end()) {
        for (const auto t : ft->second) {
          if (t >= r.time && t - r.time <= horizon) {
            failed = true;
            break;
          }
        }
      }
      if (failed) {
        ++out.true_positive;
      } else {
        ++out.false_positive;
      }
    }
  }
  return out;
}

}  // namespace hpcfail::core
