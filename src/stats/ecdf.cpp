#include "stats/ecdf.hpp"

#include <algorithm>

namespace hpcfail::stats {

Ecdf::Ecdf(std::span<const double> sample) : sorted_(sample.begin(), sample.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::fraction_at_or_below(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const noexcept {
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t n = sorted_.size();
  if (n == 1) return sorted_[0];
  const double h = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

}  // namespace hpcfail::stats
