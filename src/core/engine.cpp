#include "core/engine.hpp"

#include "core/analysis_context.hpp"
#include "parsers/corpus_parser.hpp"
#include "util/trace.hpp"

namespace hpcfail::core {

namespace {

/// Consecutive failures closer than this form one spatio-temporal cluster.
constexpr util::Duration kClusterGap = util::Duration::minutes(30);

}  // namespace

AnalysisResult AnalysisEngine::analyze(const logmodel::LogStore& store,
                                       const jobs::JobTable* jobs,
                                       util::TimePoint begin, util::TimePoint end) const {
  util::TraceSpan run_span("hpcfail.engine.run");
  const AnalysisContext ctx(store, jobs, config_.detector, config_.pool);
  AnalysisResult out;
  out.begin = begin;
  out.end = end;
  out.failures = ctx.failures();
  out.swos = ctx.detection().swos;
  out.intended_shutdowns_excluded = ctx.detection().intended_shutdowns_excluded;
  const auto& failures = ctx.failures();
  {
    util::TraceSpan span("hpcfail.engine.analyzer_cause_aggregates");
    out.breakdown = cause_breakdown(failures);
    out.layers = layer_shares(failures);
    out.module_usage = stack_module_usage(failures);
  }
  {
    util::TraceSpan span("hpcfail.engine.analyzer_lead_times");
    const LeadTimeAnalyzer analyzer(store, config_.lead_time);
    out.lead_times = analyzer.lead_times(failures, config_.pool);
    out.lead_time_summary = LeadTimeAnalyzer::summarize_lead_times(out.lead_times);
  }
  {
    util::TraceSpan span("hpcfail.engine.analyzer_external_correlation");
    const ExternalCorrelator correlator(store, failures);
    out.nvf = correlator.correspondence(logmodel::EventType::NodeVoltageFault, begin, end);
    out.nhf = correlator.correspondence(logmodel::EventType::NodeHeartbeatFault, begin, end);
    out.nhf_breakdown = correlator.nhf_breakdown(begin, end);
  }
  {
    util::TraceSpan span("hpcfail.engine.analyzer_benign_faults");
    const BenignFaultAnalyzer benign(store);
    out.sedc = benign.sedc_population(begin, end);
    out.interconnect = benign.interconnect_summary(begin, end, failures);
  }
  {
    util::TraceSpan span("hpcfail.engine.analyzer_clusters");
    out.clusters = cluster_failures(failures, kClusterGap);
    out.cluster_summary = summarize_clusters(out.clusters);
  }
  return out;
}

AnalysisResult AnalysisEngine::analyze(const parsers::ParsedCorpus& parsed) const {
  // Full extent of the corpus: [first, last] inclusive, so the window end
  // sits one tick past the last record ([begin, end) semantics everywhere).
  const auto& store = parsed.store;
  const util::TimePoint begin = store.first_time();
  const util::TimePoint end =
      store.size() ? store.last_time() + util::Duration::microseconds(1)
                   : store.first_time();
  return analyze(store, &parsed.jobs, begin, end);
}

}  // namespace hpcfail::core
