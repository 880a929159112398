// Shared analysis substrate for the unified engine (core/engine.hpp).
//
// Every stage of the paper's analysis starts from the same diagnosed
// failure list.  An AnalysisContext builds it ONCE per engine run and every
// stage shares it: it memoizes `FailureDetector::detect_full` and diagnoses
// each failure (the per-failure evidence collection shards over a
// ThreadPool with index-ordered assembly, byte-identical to serial).
#pragma once

#include <vector>

#include "core/failure_detector.hpp"
#include "core/root_cause.hpp"
#include "jobs/job_table.hpp"
#include "logmodel/log_store.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail::core {

class AnalysisContext {
 public:
  /// Detects and diagnoses every failure in `store` (`jobs` may be null).
  /// When `pool` is non-null the per-failure diagnoses shard over it; the
  /// result is identical to the serial path.
  AnalysisContext(const logmodel::LogStore& store, const jobs::JobTable* jobs,
                  const DetectorConfig& detector_config = {},
                  util::ThreadPool* pool = nullptr);

  /// Memoized detector output: failures, SWO clusters, shutdown exclusions.
  [[nodiscard]] const Detection& detection() const noexcept { return detection_; }

  /// Diagnosed failures (detection().failures + root-cause inference),
  /// time-ordered; every downstream analyzer indexes into this list.
  [[nodiscard]] const std::vector<AnalyzedFailure>& failures() const noexcept {
    return failures_;
  }

 private:
  Detection detection_;
  std::vector<AnalyzedFailure> failures_;
};

}  // namespace hpcfail::core
