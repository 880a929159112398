// Survival analysis over time-between-failure data: Kaplan-Meier survivor
// estimation (with right-censoring for open intervals at the end of the
// observation window) and a discrete hazard summary.  A decreasing hazard
// confirms the burstiness of the failure process (Observation 1): having
// just seen a failure makes another one soon MORE likely.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hpcfail::stats {

struct SurvivalPoint {
  double time = 0.0;        ///< event time
  double survival = 1.0;    ///< S(t) just after this time
  std::size_t at_risk = 0;  ///< subjects at risk just before this time
  std::size_t events = 0;   ///< events at this time
};

class KaplanMeier {
 public:
  /// `durations[i]` with `observed[i]` != 0 is an event; 0 means the
  /// subject was censored at that time.  Sizes must match.
  KaplanMeier(std::span<const double> durations, std::span<const std::uint8_t> observed);

  /// Uncensored convenience constructor.
  explicit KaplanMeier(std::span<const double> durations);

  [[nodiscard]] const std::vector<SurvivalPoint>& curve() const noexcept { return curve_; }

  /// S(t): probability of surviving past t.
  [[nodiscard]] double survival_at(double t) const noexcept;

  /// Median survival time; infinity if S never drops below 0.5.
  [[nodiscard]] double median() const noexcept;

 private:
  std::vector<SurvivalPoint> curve_;
};

/// Discrete hazard over time bins: h_i = events in bin / at-risk entering
/// the bin.  Bins are [edges[i], edges[i+1]).
struct HazardBin {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t events = 0;
  std::size_t at_risk = 0;
  [[nodiscard]] double hazard() const noexcept {
    return at_risk ? static_cast<double>(events) / static_cast<double>(at_risk) : 0.0;
  }
};

[[nodiscard]] std::vector<HazardBin> discrete_hazard(std::span<const double> durations,
                                                     std::span<const double> edges);

}  // namespace hpcfail::stats
