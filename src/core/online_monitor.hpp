// Online (streaming) failure monitor: ingest records in time order and emit
// alerts as the evidence accumulates — the deployable face of the offline
// pipeline.  It implements the paper's recommended health-checker upgrades:
// flag indicative internal patterns, upgrade the warning when correlated
// external indicators exist (lead-time enhancement, Observation 5), confirm
// failures with a root-cause hypothesis, and report recoveries.
#pragma once

#include <deque>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/root_cause.hpp"
#include "logmodel/record.hpp"

namespace hpcfail::core {

enum class AlertKind : std::uint8_t {
  PatternWarning,       ///< >=2 indicative internal types within the window
  ExternalEarlyWarning, ///< the pattern is backed by external indicators
  FailureConfirmed,     ///< failure marker observed; diagnosis attached
  NodeRecovered,        ///< NodeBoot after a confirmed failure
};

[[nodiscard]] std::string_view to_string(AlertKind k) noexcept;

struct Alert {
  AlertKind kind = AlertKind::PatternWarning;
  util::TimePoint time;
  platform::NodeId node;
  logmodel::RootCause suspected = logmodel::RootCause::Unknown;
  std::string message;
};

class OnlineMonitor {
 public:
  /// Feeds one record (records must arrive in non-decreasing time order)
  /// and returns any alerts it triggers.  `detail` is the record's resolved
  /// detail text (records carry interned Symbols; the monitor has no table
  /// of its own, so the caller resolves — e.g. store.detail(r)).  The text
  /// is copied into the evidence memory, so it need not outlive the call.
  [[nodiscard]] std::vector<Alert> ingest(const logmodel::LogRecord& record,
                                          std::string_view detail);

  /// Convenience: feed a whole time-sorted store.
  [[nodiscard]] std::vector<Alert> ingest_all(const logmodel::LogStore& store);

 private:
  struct RememberedEvent {
    util::TimePoint time;
    logmodel::EventType type;
    std::string detail;
  };
  struct NodeView {
    std::deque<RememberedEvent> recent;  ///< indicative internal records
    util::TimePoint last_warning{std::numeric_limits<std::int64_t>::min() / 2};
    bool down = false;
  };

  [[nodiscard]] Evidence evidence_for(const NodeView& node, platform::BladeId blade,
                                      util::TimePoint now) const;

  std::unordered_map<std::uint32_t, NodeView> nodes_;
  /// blade id -> recent external indicator times/types.
  std::unordered_map<std::uint32_t, std::deque<RememberedEvent>> blade_external_;
};

}  // namespace hpcfail::core
