#include "core/timeline.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace hpcfail::core {

using logmodel::EventType;
using logmodel::LogRecord;

util::Duration NodeTimeline::time_in(NodeState state) const noexcept {
  util::Duration total{};
  for (const auto& iv : intervals) {
    if (iv.state == state) total = total + (iv.end - iv.begin);
  }
  return total;
}

NodeTimeline TimelineBuilder::build(platform::NodeId node, util::TimePoint begin,
                                    util::TimePoint end) const {
  NodeTimeline timeline;
  timeline.node = node;

  NodeState state = NodeState::Up;
  util::TimePoint segment_start = begin;
  auto close_segment = [&](util::TimePoint at, NodeState next) {
    if (at > end) at = end;
    if (at > segment_start) {
      timeline.intervals.push_back({segment_start, at, state});
      segment_start = at;
    }
    state = next;
  };

  for (const std::uint32_t idx : store_.node_range(node, begin, end)) {
    const LogRecord& r = store_[idx];
    if (logmodel::is_failure_marker(r.type)) {
      // Planned maintenance is not lost availability; standard practice is
      // to count unplanned downtime only.
      if (r.type == EventType::NodeShutdown &&
          util::contains(store_.detail(r), "scheduled maintenance")) {
        continue;
      }
      if (state != NodeState::Down) close_segment(r.time, NodeState::Down);
    } else if (r.type == EventType::NhcSuspectMode) {
      if (state == NodeState::Up) close_segment(r.time, NodeState::Suspect);
    } else if (r.type == EventType::NodeBoot) {
      if (state != NodeState::Up) close_segment(r.time, NodeState::Up);
    }
  }
  close_segment(end, state);
  return timeline;
}

FleetAvailability TimelineBuilder::fleet_availability(util::TimePoint begin,
                                                      util::TimePoint end) const {
  FleetAvailability out;
  const double window_hours = (end - begin).to_hours();
  if (window_hours <= 0.0 || node_count_ == 0) return out;

  double lost_hours = 0.0;
  for (const auto node : store_.nodes()) {
    const NodeTimeline timeline = build(node, begin, end);
    lost_hours += timeline.time_in(NodeState::Down).to_hours() +
                  timeline.time_in(NodeState::Suspect).to_hours();
    // Repair times: Down interval lengths that end in a reboot (i.e. the
    // interval closes before the window does).
    for (const auto& iv : timeline.intervals) {
      if (iv.state != NodeState::Down) continue;
      ++out.down_intervals;
      if (iv.end < end) out.repair_minutes.add((iv.end - iv.begin).to_minutes());
    }
  }
  const double total_hours = window_hours * static_cast<double>(node_count_);
  out.node_hours_lost = lost_hours;
  out.availability = std::clamp(1.0 - lost_hours / total_hours, 0.0, 1.0);
  return out;
}

}  // namespace hpcfail::core
