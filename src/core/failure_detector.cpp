#include "core/failure_detector.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/strings.hpp"

namespace hpcfail::core {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogStore;

namespace {

/// Slack for job attribution around the failure time.
constexpr util::Duration kJobSlack = util::Duration::minutes(3);
/// A run of failures with consecutive gaps <= kSwoGap covering at least
/// swo_min_nodes distinct nodes is a system-wide outage, not node
/// failures (the paper excludes SWOs: <3% of anomalous failures).
constexpr util::Duration kSwoGap = util::Duration::seconds(20);

}  // namespace

Detection FailureDetector::detect_full(const LogStore& store,
                                       const jobs::JobTable* jobs) const {
  Detection result;
  std::vector<FailureEvent> out;

  // Collect marker record indexes, already time-ordered per type; merge the
  // three marker streams into one time-ordered list.
  std::vector<std::uint32_t> markers;
  for (const EventType type :
       {EventType::KernelPanic, EventType::NodeShutdown, EventType::NodeHalt}) {
    const auto idx = store.type_index(type);
    markers.insert(markers.end(), idx.begin(), idx.end());
  }
  std::sort(markers.begin(), markers.end(), [&store](std::uint32_t a, std::uint32_t b) {
    return store[a].time < store[b].time;
  });

  // Per-node dedup: markers within dedup_window of the previous marker on
  // the same node belong to the same failure.
  std::unordered_map<std::uint32_t, util::TimePoint> last_marker;
  for (const std::uint32_t idx : markers) {
    const LogRecord& r = store[idx];
    if (!r.has_node()) continue;
    // Intended shutdowns carry their reason in the shutdown message; the
    // paper recognizes and excludes them.
    if (r.type == EventType::NodeShutdown &&
        util::contains(store.detail(r), "scheduled maintenance")) {
      ++result.intended_shutdowns_excluded;
      continue;
    }
    const auto it = last_marker.find(r.node.value);
    if (it != last_marker.end() && r.time - it->second < config_.dedup_window) {
      it->second = r.time;  // extend the cluster
      continue;
    }
    last_marker[r.node.value] = r.time;

    FailureEvent ev;
    ev.node = r.node;
    ev.blade = r.blade;
    ev.cabinet = r.cabinet;
    ev.time = r.time;
    ev.marker = r.type;
    ev.job_id = r.job_id;

    // Indicative internal chain within the lookback window.
    ev.first_internal = ev.time;
    for (const std::uint32_t ci :
         store.node_range(ev.node, ev.time - kInternalLookback,
                          ev.time + util::Duration::seconds(1))) {
      const LogRecord& c = store[ci];
      if (!logmodel::is_internal_indicator(c.type)) continue;
      ev.chain.push_back(ci);
      if (c.time < ev.first_internal) ev.first_internal = c.time;
      if (ev.job_id == logmodel::kNoJob && c.has_job()) ev.job_id = c.job_id;
    }

    if (ev.job_id == logmodel::kNoJob && jobs != nullptr) {
      if (const auto* job = jobs->job_on_node_at(ev.node, ev.time, kJobSlack)) {
        ev.job_id = job->job_id;
      }
    }
    out.push_back(std::move(ev));
  }

  std::sort(out.begin(), out.end(),
            [](const FailureEvent& a, const FailureEvent& b) { return a.time < b.time; });

  // SWO recognition: runs of near-simultaneous failures across many nodes
  // are one system-wide outage, not node failures.
  std::vector<FailureEvent> kept;
  std::size_t i = 0;
  while (i < out.size()) {
    std::size_t j = i;
    while (j + 1 < out.size() && out[j + 1].time - out[j].time <= kSwoGap) ++j;
    const std::size_t cluster = j - i + 1;
    if (cluster >= config_.swo_min_nodes) {
      result.swos.push_back({out[i].time, out[j].time, cluster});
    } else {
      for (std::size_t k = i; k <= j; ++k) kept.push_back(std::move(out[k]));
    }
    i = j + 1;
  }
  result.failures = std::move(kept);
  return result;
}

}  // namespace hpcfail::core
