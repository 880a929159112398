#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

void Samples::sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  sort();
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  return values_[lo] + (values_[hi] - values_[lo]) * (pos - static_cast<double>(lo));
}

double Samples::tail(double& percentile) const {
  // Ten samples beyond percentile p need n * (1 - p/100) >= 10.
  const double n = static_cast<double>(values_.size());
  percentile = 50.0;
  if (n > 0.0) {
    const double p = std::floor(100.0 * (1.0 - 10.0 / n));
    percentile = std::clamp(p, 50.0, 99.0);
  }
  return quantile(percentile / 100.0);
}

std::string digest(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // Linux reports KiB
}

}  // namespace perfbench
