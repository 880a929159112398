// Per-node state timelines reconstructed from the logs: when was each node
// up, down, or in NHC-suspect state?  From the timelines the analyzer
// derives the fleet metrics the paper's introduction motivates — machine
// availability, node-hours lost to failures, and repair-time (reboot)
// statistics.
#pragma once

#include <vector>

#include "core/root_cause.hpp"
#include "logmodel/log_store.hpp"
#include "stats/summary.hpp"

namespace hpcfail::core {

enum class NodeState : std::uint8_t { Up, Suspect, Down };

[[nodiscard]] constexpr std::string_view to_string(NodeState s) noexcept {
  switch (s) {
    case NodeState::Up: return "Up";
    case NodeState::Suspect: return "Suspect";
    case NodeState::Down: return "Down";
  }
  return "?";
}

struct StateInterval {
  util::TimePoint begin;
  util::TimePoint end;
  NodeState state = NodeState::Up;
};

struct NodeTimeline {
  platform::NodeId node;
  /// Contiguous, non-overlapping intervals covering the analysis window.
  std::vector<StateInterval> intervals;

  [[nodiscard]] util::Duration time_in(NodeState state) const noexcept;
};

struct FleetAvailability {
  double availability = 1.0;      ///< up-node-hours / total-node-hours
  double node_hours_lost = 0.0;   ///< down + suspect node-hours
  std::size_t down_intervals = 0;
  /// Time from failure to the subsequent reboot, per repair.
  stats::StreamingStats repair_minutes;
};

class TimelineBuilder {
 public:
  /// `node_count` bounds the fleet for availability math (nodes that never
  /// log anything count as always-up).
  TimelineBuilder(const logmodel::LogStore& store, std::uint32_t node_count)
      : store_(store), node_count_(node_count) {}

  /// Timeline of one node over [begin, end).  State transitions:
  ///   failure marker      -> Down (until NodeBoot)
  ///   NhcSuspectMode      -> Suspect (until NodeBoot or failure)
  ///   NodeBoot            -> Up
  [[nodiscard]] NodeTimeline build(platform::NodeId node, util::TimePoint begin,
                                   util::TimePoint end) const;

  /// Aggregates availability over every node that appears in the store.
  [[nodiscard]] FleetAvailability fleet_availability(util::TimePoint begin,
                                                     util::TimePoint end) const;

 private:
  const logmodel::LogStore& store_;
  std::uint32_t node_count_;
};

}  // namespace hpcfail::core
