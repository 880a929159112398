#include "core/markdown_report.hpp"

#include <sstream>
#include <stdexcept>

#include "core/advisor.hpp"
#include "core/engine.hpp"
#include "core/temporal.hpp"
#include "core/timeline.hpp"
#include "stats/ecdf.hpp"
#include "util/table.hpp"

namespace hpcfail::core {

std::string markdown_report(const ReportInputs& inputs) {
  const AnalysisEngine engine;
  return markdown_report(inputs, engine.analyze(*inputs.store, inputs.jobs, inputs.begin,
                                                inputs.end));
}

std::string markdown_report(const ReportInputs& inputs, const AnalysisResult& analysis) {
  if (analysis.begin != inputs.begin || analysis.end != inputs.end) {
    throw std::invalid_argument(
        "markdown_report: the analysis window differs from the report window");
  }
  std::ostringstream out;
  const auto& store = *inputs.store;
  const auto window_days = (inputs.end - inputs.begin).usec / util::Duration::days(1).usec;

  out << "# Node-failure report — " << inputs.system_label << "\n\n";
  out << "Window: " << util::format_iso(inputs.begin) << " to "
      << util::format_iso(inputs.end) << " (" << window_days << " days), "
      << store.size() << " parsed records";
  if (inputs.jobs != nullptr) out << ", " << inputs.jobs->size() << " jobs";
  out << ".\n\n";

  // --- one engine run produces every section's numbers ---
  const auto& failures = analysis.failures;
  const auto& breakdown = analysis.breakdown;
  out << "## Failures and root causes\n\n";
  out << failures.size() << " node failures diagnosed.\n\n";
  out << "| Root cause | Count | Share |\n|---|---|---|\n";
  for (std::size_t i = 0; i < breakdown.counts.size(); ++i) {
    if (breakdown.counts[i] == 0) continue;
    const auto cause = static_cast<logmodel::RootCause>(i);
    out << "| " << to_string(cause) << " | " << breakdown.counts[i] << " | "
        << util::fmt_pct(breakdown.share(cause)) << " |\n";
  }
  const auto& shares = analysis.layers;
  out << "\nLayer shares: hardware " << util::fmt_pct(shares.hardware) << ", software "
      << util::fmt_pct(shares.software) << ", application "
      << util::fmt_pct(shares.application) << "; application-triggered origin "
      << util::fmt_pct(shares.application_triggered) << ".\n\n";

  // --- temporal structure ---
  const TemporalAnalyzer temporal(failures);
  const auto gaps = temporal.inter_failure_minutes(inputs.begin, inputs.end);
  out << "## Temporal structure\n\n";
  if (!gaps.empty()) {
    const stats::Ecdf ecdf{gaps};
    out << "Inter-failure gaps: median " << util::fmt_double(ecdf.quantile(0.5), 1)
        << " min; " << util::fmt_pct(ecdf.fraction_at_or_below(16.0))
        << " within 16 min (bursty).\n";
  }
  const auto days = temporal.dominant_cause_per_day(inputs.begin,
                                                    static_cast<int>(window_days));
  stats::StreamingStats dom;
  for (const auto& d : days) dom.add(d.dominant_share());
  if (dom.count() > 0) {
    out << "On failure days, " << util::fmt_pct(dom.mean())
        << " of failures share the day's dominant cause on average.\n";
  }
  const auto& cluster_summary = analysis.cluster_summary;
  if (cluster_summary.clusters > 0) {
    out << "Failures form " << cluster_summary.clusters << " clusters (mean size "
        << util::fmt_double(cluster_summary.mean_size, 1) << ", max "
        << util::fmt_double(cluster_summary.max_size, 0) << "); "
        << util::fmt_pct(cluster_summary.same_cause_fraction)
        << " of multi-failure clusters share one cause";
    if (cluster_summary.shared_job_multi_blade_fraction > 0) {
      out << ", and " << util::fmt_pct(cluster_summary.shared_job_multi_blade_fraction)
          << " of shared-job clusters span multiple blades";
    }
    out << ".\n";
  }
  out << '\n';

  // --- external correlation & lead times ---
  const auto& nvf = analysis.nvf;
  const auto& nhf = analysis.nhf;
  out << "## External indicators\n\n";
  out << "- NVFs: " << nvf.faults << " observed, " << util::fmt_pct(nvf.fraction())
      << " correspond to failures.\n";
  out << "- NHFs: " << nhf.faults << " observed, " << util::fmt_pct(nhf.fraction())
      << " correspond to failures.\n";
  const auto& lt = analysis.lead_time_summary;
  out << "- Lead times: " << util::fmt_pct(lt.enhanceable_fraction())
      << " of failures enhanceable via external indicators";
  if (lt.enhanceable > 0) {
    out << " (mean " << util::fmt_double(lt.internal_minutes_enh.mean(), 1) << " min -> "
        << util::fmt_double(lt.external_minutes.mean(), 1) << " min, factor "
        << util::fmt_double(lt.enhancement_factor(), 1) << "x)";
  }
  out << ".\n\n";

  // --- availability ---
  if (inputs.topology != nullptr) {
    const TimelineBuilder builder(store, inputs.topology->node_count());
    const auto fleet = builder.fleet_availability(inputs.begin, inputs.end);
    out << "## Fleet availability\n\n";
    out << util::fmt_pct(fleet.availability, 3) << " availability, "
        << util::fmt_double(fleet.node_hours_lost, 1) << " node-hours lost across "
        << fleet.down_intervals << " down intervals";
    if (fleet.repair_minutes.count() > 0) {
      out << " (mean repair " << util::fmt_double(fleet.repair_minutes.mean(), 0)
          << " min)";
    }
    out << ".\n\n";
  }

  // --- recommended actions ---
  const MitigationAdvisor advisor;
  const auto recommendations = advisor.advise(failures, inputs.jobs);
  const auto actions = summarize_actions(recommendations, failures);
  out << "## Recommended actions\n\n";
  out << "| Action | Failures |\n|---|---|\n";
  for (std::size_t a = 0; a < actions.counts.size(); ++a) {
    if (actions.counts[a] == 0) continue;
    out << "| " << to_string(static_cast<Action>(a)) << " | " << actions.counts[a]
        << " |\n";
  }
  out << "\nQuarantining every failed node would have wasted capacity on "
      << util::fmt_pct(actions.quarantine_waste_fraction)
      << " of failures (application-triggered).\n";
  return out.str();
}

}  // namespace hpcfail::core
