// Failure detection over the structured log store: finds confirmed node
// failures from internal failure markers (kernel panic / anomalous shutdown
// / admindown halt), deduplicates marker clusters into single failure
// events, and attaches the indicative internal chain preceding each event.
//
// This is step (1) of the paper's methodology (Section II-A): tracking
// confirmed failure indications in the node-specific logs.  Ground-truth
// validation, which the paper obtained from cluster administrators, is done
// in the tests against the injector's ledger.
#pragma once

#include <cstdint>
#include <vector>

#include "jobs/job_table.hpp"
#include "logmodel/log_store.hpp"
#include "platform/ids.hpp"
#include "util/time.hpp"

namespace hpcfail::core {

struct FailureEvent {
  platform::NodeId node;
  platform::BladeId blade;
  platform::CabinetId cabinet;
  util::TimePoint time;                  ///< first failure marker of the cluster
  logmodel::EventType marker = logmodel::EventType::NodeShutdown;  ///< first marker type
  std::int64_t job_id = logmodel::kNoJob;///< job on the node at failure time
  /// Earliest fault-indicative internal record within the lookback window;
  /// equals `time` when the failure had no internal precursor.
  util::TimePoint first_internal;
  /// Store indexes of the indicative internal records (time-ordered).
  std::vector<std::uint32_t> chain;
};

/// How far before a failure marker its indicative internal chain may
/// start.  The root-cause engine collects internal evidence over the same
/// window.
inline constexpr util::Duration kInternalLookback = util::Duration::minutes(30);

struct DetectorConfig {
  /// Markers on the same node within this window merge into one failure.
  util::Duration dedup_window = util::Duration::minutes(10);
  /// A run of near-simultaneous failures (kSwoGap, failure_detector.cpp)
  /// covering at least this many distinct nodes is a system-wide outage.
  std::size_t swo_min_nodes = 50;
};

/// A detected system-wide outage (excluded from node-failure statistics).
struct SwoCluster {
  util::TimePoint begin;
  util::TimePoint end;
  std::size_t nodes = 0;
};

struct Detection {
  std::vector<FailureEvent> failures;  ///< node failures, SWOs excluded
  std::vector<SwoCluster> swos;
  std::size_t intended_shutdowns_excluded = 0;
};

class FailureDetector {
 public:
  explicit FailureDetector(DetectorConfig config = {}) : config_(config) {}

  /// Full detection: node failures with intended shutdowns and SWO
  /// clusters recognized and excluded. Failures sorted by time.
  [[nodiscard]] Detection detect_full(const logmodel::LogStore& store,
                                      const jobs::JobTable* jobs) const;

  /// Convenience: just the node failures.
  [[nodiscard]] std::vector<FailureEvent> detect(const logmodel::LogStore& store,
                                                 const jobs::JobTable* jobs) const {
    return detect_full(store, jobs).failures;
  }

 private:
  DetectorConfig config_;
};

}  // namespace hpcfail::core
