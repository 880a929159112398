#include "jobs/allocator.hpp"

#include <algorithm>
#include <numeric>

namespace hpcfail::jobs {

NodeAllocator::NodeAllocator(const platform::Topology& topo)
    : topo_(topo), free_at_(topo.node_count(), util::TimePoint{0}) {}

std::vector<platform::NodeId> NodeAllocator::allocate(std::uint32_t count,
                                                      util::TimePoint start,
                                                      util::TimePoint end, AllocPolicy policy,
                                                      util::Rng& rng) {
  const std::uint32_t n = topo_.node_count();
  if (count == 0 || count > n) return {};

  // Every probe writes its node into the next slot and advances the slot
  // only if the node is free: no branch on a coin-flip free/busy test.
  // Both walks wrap by a compare and a subtract, not a division per probe.
  std::vector<platform::NodeId> picked(count);
  std::uint32_t taken = 0;
  const auto probe = [&](std::uint32_t node) {
    picked[taken] = platform::NodeId{node};
    taken += free_at_[node] <= start ? 1 : 0;
  };
  if (policy == AllocPolicy::BladePacked) {
    // Walk blades from a random offset, taking whole free blades first.
    const std::uint32_t blades = topo_.blade_count();
    const std::uint32_t per_blade = topo_.nodes_per_blade();
    auto blade = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(blades) - 1));
    for (std::uint32_t step = 0; step < blades && taken < count; ++step) {
      const std::uint32_t first = blade * per_blade;
      const std::uint32_t last = first + std::min(per_blade, n - first);
      for (std::uint32_t node = first; node < last && taken < count; ++node) probe(node);
      blade = blade + 1 == blades ? 0 : blade + 1;
    }
  } else {
    // Random scatter: offset + k * stride (mod n) for k = 0, 1, ...; the
    // stride is coprime with n, so the probe visits every node exactly once.
    auto node = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto stride = static_cast<std::uint32_t>(rng.uniform_int(1, 257));
    while (std::gcd(stride, n) != 1) ++stride;
    const std::uint32_t step_by = stride % n;
    for (std::uint32_t step = 0; step < n && taken < count; ++step) {
      probe(node);
      node = node >= n - step_by ? node - (n - step_by) : node + step_by;
    }
  }

  if (taken < count) return {};  // not enough capacity right now
  for (const auto node : picked) free_at_[node.value] = end;
  return picked;
}

}  // namespace hpcfail::jobs
