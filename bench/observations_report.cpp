// Capstone: all nine Observations of the paper, verified in one run over a
// single 8-week S1 corpus (plus the S5 comparison corpus for Observation 6).
// Each observation is one or two measured claims; the summary line is the
// reproduction scoreboard.
#include "bench_common.hpp"
#include "core/benign_faults.hpp"
#include "core/external_correlator.hpp"
#include "core/job_analysis.hpp"
#include "core/leadtime.hpp"
#include "core/report.hpp"
#include "core/spatial.hpp"
#include "core/temporal.hpp"
#include "stats/timeseries.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Observations 1-9 scoreboard (S1, 8 weeks)");

  const auto p = bench::run_system(platform::SystemName::S1, 56, 5005);
  const auto begin = p.sim.config.begin;
  const auto end = p.sim.config.end();

  // --- Observation 1: failures minutes apart; same daily malfunction ---
  const core::TemporalAnalyzer temporal(p.failures);
  const auto gaps = temporal.inter_failure_minutes(begin, end);
  stats::Ecdf gap_ecdf{gaps};
  check.greater("O1a: majority of failure gaps within 16 min",
                gap_ecdf.fraction_at_or_below(16.0), 0.5);
  const auto days = temporal.dominant_cause_per_day(begin, 56);
  stats::StreamingStats dom;
  for (const auto& d : days) dom.add(d.dominant_share());
  check.in_range("O1b: mean dominant daily cause share (paper >65%)", dom.mean(), 0.60,
                 0.95);
  // Burstiness: windowed failure counts are over-dispersed vs Poisson.
  std::vector<double> times;
  for (const auto& f : p.failures) times.push_back((f.event.time - begin).to_hours());
  const auto counts = stats::windowed_counts(times, 0.0, 56.0 * 24.0, 1.0);
  check.greater("O1c: failure counts over-dispersed (Fano factor >> 1)",
                stats::index_of_dispersion(counts), 2.0);

  // --- Observation 2: NVF/NHF as early indicators, weak blade link ---
  const core::ExternalCorrelator correlator(p.parsed.store, p.failures);
  const auto nvf = correlator.correspondence(logmodel::EventType::NodeVoltageFault, begin, end);
  const auto nhf = correlator.correspondence(logmodel::EventType::NodeHeartbeatFault, begin, end);
  check.in_range("O2a: NVF->failure correspondence (paper 67-97%)", nvf.fraction(), 0.55,
                 1.0);
  check.in_range("O2b: NHF->failure correspondence (paper 21-64%)", nhf.fraction(), 0.15,
                 0.75);

  // --- Observation 3: blade/cabinet signals are not primary causes ---
  const core::SpatialAnalyzer spatial(p.parsed.store);
  const auto attribution = spatial.attribute(p.failures, begin, end);
  check.in_range("O3: failures on 'faulty' blades stay a weak minority-to-half",
                 attribution.blade_fraction(), 0.10, 0.70);

  // --- Observation 4: erroring nodes mostly do not fail ---
  const core::BenignFaultAnalyzer benign(p.parsed.store);
  const double err_fail = benign.erroring_node_failure_fraction(
      logmodel::EventType::HardwareError, begin, end, util::Duration::hours(24), p.failures);
  check.in_range("O4: HW-erroring nodes that fail within a day", err_fail, 0.0, 0.40);

  // --- Observation 5: external indicators buy ~5x lead time for 10-28% ---
  const core::LeadTimeAnalyzer leadtime(p.parsed.store);
  const auto lt = leadtime.summarize(p.failures);
  check.in_range("O5a: enhanceable fraction (paper 10-28%)", lt.enhanceable_fraction(),
                 0.08, 0.32);
  check.in_range("O5b: lead-time enhancement factor (paper ~5x)", lt.enhancement_factor(),
                 3.0, 9.0);

  // --- Observation 6: file-system bugs frequent on Cray, not on S5 ---
  const auto s1_breakdown = core::cause_breakdown(p.failures);
  const auto s5 = bench::run_system(platform::SystemName::S5, 28, 5006);
  const auto s5_breakdown = core::cause_breakdown(s5.failures);
  check.greater("O6: Lustre-bug failure share higher on Cray than institutional",
                s1_breakdown.share(logmodel::RootCause::LustreBug),
                s5_breakdown.share(logmodel::RootCause::LustreBug));

  // --- Observation 7: application-triggered origin dominates ---
  const auto shares = core::layer_shares(p.failures);
  check.greater("O7: application-triggered failures are a major share",
                shares.application_triggered, 0.35);

  // --- Observation 8: shared-job failures span blades, temporally local ---
  const core::JobAnalyzer jobs(p.parsed.jobs, p.failures);
  check.greater("O8a: shared-job failure groups span multiple blades",
                jobs.multi_blade_shared_job_fraction(), 0.3);
  const auto groups = jobs.shared_job_groups(2);
  stats::StreamingStats spans;
  for (const auto& g : groups) spans.add(g.span.to_minutes());
  if (spans.count() > 0) {
    check.in_range("O8b: shared-job group span (temporal locality, minutes)", spans.mean(),
                   0.0, 60.0);
  }

  // --- Observation 9: undeducible patterns stay undeducible ---
  const double unknown_share = s1_breakdown.share(logmodel::RootCause::BiosUnknown) +
                               s1_breakdown.share(logmodel::RootCause::L0SysdMceUnknown) +
                               s1_breakdown.share(logmodel::RootCause::OperatorError) +
                               s1_breakdown.share(logmodel::RootCause::Unknown);
  check.in_range("O9: small share of failures stays without a deducible cause",
                 unknown_share, 0.005, 0.20);
  return check.exit_code();
}
