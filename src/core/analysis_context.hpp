// Shared analysis substrate for the unified engine (core/engine.hpp).
//
// The paper's analyses all ask variations of the same questions — "which
// failures, what window, which records of type T near them" — and before the
// engine existed every analyzer re-derived detection and re-scanned the
// LogStore independently.  An AnalysisContext is built ONCE per engine run
// and shared by every analyzer: it memoizes `FailureDetector::detect_full`,
// diagnoses each failure (the per-failure evidence collection shards over a
// ThreadPool with index-ordered assembly, byte-identical to serial), and
// precomputes the joins the analyzers keep re-building — the in-window
// event-type histogram, failure indexes per node, and failure indexes per
// job id.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/failure_detector.hpp"
#include "core/root_cause.hpp"
#include "jobs/job_table.hpp"
#include "logmodel/log_store.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail::core {

class AnalysisContext {
 public:
  /// Detects and diagnoses immediately; `store` must outlive the context,
  /// as must `jobs` when non-null.  When `pool` is non-null the per-failure
  /// diagnoses shard over it; the result is identical to the serial path.
  AnalysisContext(const logmodel::LogStore& store, const jobs::JobTable* jobs,
                  util::TimePoint begin, util::TimePoint end,
                  const DetectorConfig& detector_config = {},
                  const RootCauseConfig& root_cause_config = {},
                  util::ThreadPool* pool = nullptr);

  [[nodiscard]] const logmodel::LogStore& store() const noexcept { return store_; }
  [[nodiscard]] const jobs::JobTable* jobs() const noexcept { return jobs_; }
  [[nodiscard]] util::TimePoint begin() const noexcept { return begin_; }
  [[nodiscard]] util::TimePoint end() const noexcept { return end_; }

  /// Memoized detector output: failures, SWO clusters, shutdown exclusions.
  [[nodiscard]] const Detection& detection() const noexcept { return detection_; }

  /// Diagnosed failures (detection().failures + root-cause inference),
  /// time-ordered; every downstream analyzer indexes into this list.
  [[nodiscard]] const std::vector<AnalyzedFailure>& failures() const noexcept {
    return failures_;
  }

  /// In-window count per event type (the "how many NVFs/NHFs/SEDC warnings
  /// did this window even see" histogram).
  [[nodiscard]] const std::array<std::size_t, logmodel::kEventTypeCount>& type_histogram()
      const noexcept {
    return type_histogram_;
  }
  [[nodiscard]] std::size_t type_count(logmodel::EventType type) const noexcept {
    return type_histogram_[static_cast<std::size_t>(type)];
  }

  /// Failure-list indexes on `node`, time-ordered; nullptr when none.
  [[nodiscard]] const std::vector<std::size_t>* failures_on_node(
      platform::NodeId node) const noexcept;

  /// Failure-list indexes attributed to `job_id`, time-ordered; nullptr
  /// when none (kNoJob never joins).
  [[nodiscard]] const std::vector<std::size_t>* failures_of_job(
      std::int64_t job_id) const noexcept;

  /// Store indexes of `node`'s records clipped to the analysis window —
  /// the per-node window view analyzers previously re-filtered themselves.
  /// Views into the store's per-node index; valid as long as the store.
  [[nodiscard]] std::span<const std::uint32_t> node_window(platform::NodeId node) const {
    return store_.node_range(node, begin_, end_);
  }
  [[nodiscard]] std::span<const std::uint32_t> blade_window(platform::BladeId blade) const {
    return store_.blade_range(blade, begin_, end_);
  }

 private:
  const logmodel::LogStore& store_;
  const jobs::JobTable* jobs_;
  util::TimePoint begin_;
  util::TimePoint end_;
  Detection detection_;
  std::vector<AnalyzedFailure> failures_;
  std::array<std::size_t, logmodel::kEventTypeCount> type_histogram_{};
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> failures_by_node_;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> failures_by_job_;
};

}  // namespace hpcfail::core
