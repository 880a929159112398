// Lead-time analysis (Section III-D, Figs 13-14, Observation 5).
//
// For every failure the internal lead time is (failure - first indicative
// internal record).  When correlated external indicators exist earlier, the
// enhanced lead time is (failure - earliest correlated external record).
// The analyzer also evaluates a simple online predictor with and without
// the external-correlation requirement to measure the false-positive-rate
// reduction of Fig 14.
#pragma once

#include <optional>
#include <vector>

#include "core/root_cause.hpp"
#include "logmodel/log_store.hpp"
#include "stats/summary.hpp"

namespace hpcfail::util {
class ThreadPool;
}  // namespace hpcfail::util

namespace hpcfail::core {

struct LeadTimeConfig {
  /// How far before the failure external indicators are searched.
  util::Duration external_lookback = util::Duration::hours(2);
};

struct FailureLeadTime {
  std::size_t failure_index = 0;       ///< into the analyzed-failure list
  util::Duration internal_lead{};      ///< >= 0
  std::optional<util::Duration> external_lead;  ///< set when enhanceable
  [[nodiscard]] bool enhanceable() const noexcept { return external_lead.has_value(); }
};

struct LeadTimeSummary {
  std::size_t failures = 0;
  std::size_t enhanceable = 0;
  stats::StreamingStats internal_minutes;       ///< over all failures
  stats::StreamingStats internal_minutes_enh;   ///< over enhanceable failures
  stats::StreamingStats external_minutes;       ///< over enhanceable failures
  [[nodiscard]] double enhanceable_fraction() const noexcept {
    return failures ? static_cast<double>(enhanceable) / static_cast<double>(failures) : 0.0;
  }
  /// Mean enhancement factor over the enhanceable population.
  [[nodiscard]] double enhancement_factor() const noexcept {
    const double internal = internal_minutes_enh.mean();
    return internal > 0.0 ? external_minutes.mean() / internal : 0.0;
  }
};

struct PredictorEvaluation {
  std::size_t flagged = 0;         ///< node-windows the predictor flagged
  std::size_t true_positive = 0;   ///< ... followed by a failure
  std::size_t false_positive = 0;
  [[nodiscard]] double fp_rate() const noexcept {
    return flagged ? static_cast<double>(false_positive) / static_cast<double>(flagged)
                   : 0.0;
  }
};

class LeadTimeAnalyzer {
 public:
  /// Keeps a reference to `store`, which must outlive the analyzer.
  LeadTimeAnalyzer(const logmodel::LogStore& store, LeadTimeConfig config = {});

  /// Per-failure lead times; indexes parallel `failures`.  When `pool` is
  /// non-null the per-failure attributions (independent reads of the
  /// immutable store) shard over it into disjoint slots; the result is
  /// identical to the serial path.
  [[nodiscard]] std::vector<FailureLeadTime> lead_times(
      const std::vector<AnalyzedFailure>& failures,
      util::ThreadPool* pool = nullptr) const;

  [[nodiscard]] LeadTimeSummary summarize(
      const std::vector<AnalyzedFailure>& failures) const;

  /// Aggregates already-computed per-failure lead times;
  /// `summarize(failures)` == `summarize_lead_times(lead_times(failures))`.
  [[nodiscard]] static LeadTimeSummary summarize_lead_times(
      const std::vector<FailureLeadTime>& lead_times);

  /// Fig 14: evaluates the internal-pattern predictor. When
  /// `require_external` is set a node is only flagged when a correlated
  /// external indicator accompanies the internal pattern.
  ///
  /// Predictor: a node is flagged when two fault-indicative internal
  /// records of DIFFERENT types land within `pattern_window` — the
  /// sequence-of-fault-indicative-messages pattern of Section III-D.
  /// A flag is a true positive iff the node fails within `horizon`;
  /// flags on one node are deduplicated per horizon.
  [[nodiscard]] PredictorEvaluation evaluate_predictor(
      const std::vector<AnalyzedFailure>& failures, bool require_external,
      util::Duration horizon = util::Duration::hours(1),
      util::Duration pattern_window = util::Duration::minutes(10)) const;

 private:
  /// Time of the earliest external indicator correlated with `node` on
  /// `blade` in the external lookback before `t`, if any: not an NHF, on
  /// this node when node-scoped, and quiet on the blade over the preceding
  /// baseline window.
  [[nodiscard]] std::optional<util::TimePoint> earliest_external(platform::NodeId node,
                                                                 platform::BladeId blade,
                                                                 util::TimePoint t) const;
  /// True when `type` did not occur on the blade during the quiet window
  /// (kQuietWindow, leadtime.cpp) preceding `window_start`.
  [[nodiscard]] bool quiet_before(platform::BladeId blade, platform::NodeId node,
                                  logmodel::EventType type,
                                  util::TimePoint window_start) const;

  const logmodel::LogStore& store_;
  LeadTimeConfig config_;
};

}  // namespace hpcfail::core
