// Point-process burstiness over event timestamps: the index of dispersion
// (Fano factor) of windowed counts.  A Poisson process has dispersion ~1;
// the clustered failure arrivals of Observation 1 give dispersion >> 1.
#pragma once

#include <span>
#include <vector>

namespace hpcfail::stats {

/// Counts events in consecutive windows of `window` length covering
/// [begin, end). Event times outside the range are ignored.
[[nodiscard]] std::vector<double> windowed_counts(std::span<const double> event_times,
                                                  double begin, double end, double window);

/// Index of dispersion (variance / mean) of a count series; 0 when the
/// series is empty or has zero mean.
[[nodiscard]] double index_of_dispersion(std::span<const double> counts);

}  // namespace hpcfail::stats
