// Node allocation for the synthetic workload.
//
// Two policies mirror how real schedulers place jobs:
//   BladePacked - fill whole blades first (spatially contiguous), so an
//                 application-triggered chain takes out co-located nodes;
//   Scattered   - random free nodes anywhere, producing the paper's
//                 "spatially distant yet temporally correlated" failures
//                 (Observation 8).
#pragma once

#include <cstdint>
#include <vector>

#include "platform/topology.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hpcfail::jobs {

enum class AllocPolicy : std::uint8_t { BladePacked, Scattered };

class NodeAllocator {
 public:
  explicit NodeAllocator(const platform::Topology& topo);

  /// Tries to reserve `count` nodes over [start, end). Returns the nodes,
  /// or an empty vector when not enough are free at `start`.
  [[nodiscard]] std::vector<platform::NodeId> allocate(std::uint32_t count,
                                                       util::TimePoint start,
                                                       util::TimePoint end,
                                                       AllocPolicy policy, util::Rng& rng);

 private:
  const platform::Topology& topo_;
  std::vector<util::TimePoint> free_at_;  ///< per node: when it becomes free
};

}  // namespace hpcfail::jobs
