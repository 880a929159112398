#include "core/analysis_context.hpp"

#include "logmodel/record.hpp"
#include "util/trace.hpp"

namespace hpcfail::core {

AnalysisContext::AnalysisContext(const logmodel::LogStore& store,
                                 const jobs::JobTable* jobs, util::TimePoint begin,
                                 util::TimePoint end,
                                 const DetectorConfig& detector_config,
                                 const RootCauseConfig& root_cause_config,
                                 util::ThreadPool* pool)
    : store_(store), jobs_(jobs), begin_(begin), end_(end) {
  // One pass over the window for the type histogram; every analyzer that
  // previously counted its own types reads this instead.
  {
    util::TraceSpan span("hpcfail.context.type_histogram");
    for (const auto& r : store.range(begin_, end_)) {
      ++type_histogram_[static_cast<std::size_t>(r.type)];
    }
  }

  // Memoized detection + diagnosis.  Evidence collection per failure is
  // independent (immutable store/jobs/configs, disjoint output slots), so
  // it shards over the pool with index-ordered assembly: the result is
  // byte-identical to the serial loop.
  const FailureDetector detector(detector_config);
  const RootCauseEngine engine(root_cause_config);
  {
    util::TraceSpan span("hpcfail.context.detect");
    detection_ = detector.detect_full(store, jobs);
  }
  failures_.resize(detection_.failures.size());
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    failures_[i].event = detection_.failures[i];
  }
  {
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

  // Failure joins: per node and per attributed job, time-ordered because
  // the failure list itself is.
  util::TraceSpan span("hpcfail.context.joins");
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    const auto& e = failures_[i].event;
    if (e.node.valid()) failures_by_node_[e.node.value].push_back(i);
    if (e.job_id != logmodel::kNoJob) failures_by_job_[e.job_id].push_back(i);
  }
}

const std::vector<std::size_t>* AnalysisContext::failures_on_node(
    platform::NodeId node) const noexcept {
  const auto it = failures_by_node_.find(node.value);
  return it == failures_by_node_.end() ? nullptr : &it->second;
}

const std::vector<std::size_t>* AnalysisContext::failures_of_job(
    std::int64_t job_id) const noexcept {
  if (job_id == logmodel::kNoJob) return nullptr;
  const auto it = failures_by_job_.find(job_id);
  return it == failures_by_job_.end() ? nullptr : &it->second;
}

}  // namespace hpcfail::core
