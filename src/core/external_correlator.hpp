// External-influence correlation (Section III-B, Figs 5-7): how often do
// node heartbeat faults (NHF) and node voltage faults (NVF) actually
// correspond to node failures, and what do the non-failing NHFs look like?
#pragma once

#include <vector>

#include "core/root_cause.hpp"
#include "logmodel/log_store.hpp"

namespace hpcfail::core {

struct FaultCorrespondence {
  std::size_t faults = 0;          ///< external fault events observed
  std::size_t matched = 0;         ///< ... that correspond to a failure
  [[nodiscard]] double fraction() const noexcept {
    return faults ? static_cast<double>(matched) / static_cast<double>(faults) : 0.0;
  }
};

/// Fig 6's finer NHF breakdown.
struct NhfBreakdown {
  std::size_t total = 0;
  std::size_t failed = 0;              ///< NHF matched a failure
  std::size_t failed_mce = 0;          ///< ... whose cause was hardware MCE
  std::size_t power_off = 0;           ///< non-failing: node powered off
  std::size_t skipped_heartbeat = 0;   ///< non-failing: skipped heartbeat
  std::size_t other_benign = 0;        ///< non-failing, unattributed
};

class ExternalCorrelator {
 public:
  /// Keeps references to `store` and `failures`, which must outlive the
  /// correlator.
  ExternalCorrelator(const logmodel::LogStore& store,
                     const std::vector<AnalyzedFailure>& failures);

  /// Correspondence of a node-scoped external fault type with failures over
  /// [begin, end) (Fig 5, computed per month/week by the benches).
  [[nodiscard]] FaultCorrespondence correspondence(logmodel::EventType fault_type,
                                                   util::TimePoint begin,
                                                   util::TimePoint end) const;

  [[nodiscard]] NhfBreakdown nhf_breakdown(util::TimePoint begin, util::TimePoint end) const;

 private:
  /// The failure matching (node, time window), or nullptr.
  [[nodiscard]] const AnalyzedFailure* match_failure(platform::NodeId node,
                                                     util::TimePoint t) const;

  const logmodel::LogStore& store_;
  const std::vector<AnalyzedFailure>& failures_;
  /// Failure list indexes per node, time-ordered.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> failures_by_node_;
};

}  // namespace hpcfail::core
