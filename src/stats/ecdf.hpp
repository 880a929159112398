// Empirical CDF over a sample, used by the inter-failure-time figures
// (Fig 3, Fig 19) and the lead-time analysis.
#pragma once

#include <span>
#include <vector>

namespace hpcfail::stats {

class Ecdf {
 public:
  Ecdf() = default;
  /// Copies and sorts the sample.
  explicit Ecdf(std::span<const double> sample);

  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }

  /// P(X <= x); 0 for an empty sample.
  [[nodiscard]] double fraction_at_or_below(double x) const noexcept;

  /// q-quantile for q in [0, 1] via linear interpolation between order
  /// statistics (type-7, the numpy default). Requires a non-empty sample.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Evaluation points (the sorted sample) for plotting.
  [[nodiscard]] const std::vector<double>& sorted_sample() const noexcept { return sorted_; }

 private:
  std::vector<double> sorted_;
};

}  // namespace hpcfail::stats
