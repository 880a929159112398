// Small measurement helpers shared by the workloads: a monotonic clock,
// sample sets with the percentile rules the benchmark reports by, a stable
// digest for comparing reports, and the process's peak resident set.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A growing set of measurements (any unit); order-insensitive queries.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  void append(const Samples& other);

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;

  /// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// The highest percentile, capped at p99, that still has at least ten
  /// samples beyond it (the rule for reporting a tail); never below p50.
  /// `percentile` receives the percentile used (50..99).
  [[nodiscard]] double tail(double& percentile) const;

 private:
  void sort() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// FNV-1a 64 of `text`, printed as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view text);

/// Peak resident set of this process so far, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
