// Parametric fit for time-between-failure distributions.  The paper reports
// MTBFs per window; a Weibull fit lets the benches characterize burstiness
// (Weibull shape < 1 indicates the clustered failures of Observation 1).
#pragma once

#include <optional>
#include <span>

namespace hpcfail::stats {

struct WeibullFit {
  double shape = 1.0;  ///< k; < 1 means bursty (decreasing hazard)
  double scale = 1.0;  ///< lambda
};

/// MLE via Newton iteration on the shape profile likelihood; requires at
/// least two strictly positive, non-identical samples.
[[nodiscard]] std::optional<WeibullFit> fit_weibull(std::span<const double> sample);

}  // namespace hpcfail::stats
