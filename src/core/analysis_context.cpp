#include "core/analysis_context.hpp"

#include "util/trace.hpp"

namespace hpcfail::core {

AnalysisContext::AnalysisContext(const logmodel::LogStore& store,
                                 const jobs::JobTable* jobs,
                                 const DetectorConfig& detector_config,
                                 util::ThreadPool* pool) {
  // Memoized detection + diagnosis.  Evidence collection per failure is
  // independent (immutable store/jobs/config, disjoint output slots), so
  // it shards over the pool with index-ordered assembly: the result is
  // byte-identical to the serial loop.
  const FailureDetector detector(detector_config);
  const RootCauseEngine engine;
  {
    util::TraceSpan span("hpcfail.context.detect");
    detection_ = detector.detect_full(store, jobs);
  }
  failures_.resize(detection_.failures.size());
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    failures_[i].event = detection_.failures[i];
  }
  util::TraceSpan span("hpcfail.context.diagnose");
  if (pool != nullptr && failures_.size() > 1) {
    pool->parallel_for(failures_.size(), [&](std::size_t i) {
      failures_[i].inference = engine.diagnose(store, failures_[i].event, jobs);
    });
  } else {
    for (auto& f : failures_) {
      f.inference = engine.diagnose(store, f.event, jobs);
    }
  }
}

}  // namespace hpcfail::core
