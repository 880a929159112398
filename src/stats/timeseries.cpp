#include "stats/timeseries.hpp"

#include <algorithm>
#include <cmath>

namespace hpcfail::stats {

std::vector<double> windowed_counts(std::span<const double> event_times, double begin,
                                    double end, double window) {
  std::vector<double> counts;
  if (!(window > 0.0) || !(end > begin)) return counts;
  const auto bins = static_cast<std::size_t>(std::ceil((end - begin) / window));
  counts.assign(bins, 0.0);
  for (const double t : event_times) {
    if (t < begin || t >= end) continue;
    const auto bin = static_cast<std::size_t>((t - begin) / window);
    if (bin < bins) counts[bin] += 1.0;
  }
  return counts;
}

double index_of_dispersion(std::span<const double> counts) {
  if (counts.empty()) return 0.0;
  double mean = 0.0;
  for (const double c : counts) mean += c;
  mean /= static_cast<double>(counts.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const double c : counts) var += (c - mean) * (c - mean);
  var /= static_cast<double>(counts.size());
  return var / mean;
}

}  // namespace hpcfail::stats
