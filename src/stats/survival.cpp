#include "stats/survival.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hpcfail::stats {

KaplanMeier::KaplanMeier(std::span<const double> durations, std::span<const std::uint8_t> observed) {
  if (durations.size() != observed.size()) {
    throw std::invalid_argument("KaplanMeier: size mismatch");
  }
  struct Entry {
    double time;
    bool event;
  };
  std::vector<Entry> entries;
  entries.reserve(durations.size());
  for (std::size_t i = 0; i < durations.size(); ++i) {
    if (durations[i] >= 0.0) entries.push_back({durations[i], observed[i] != 0});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.time < b.time; });

  double survival = 1.0;
  std::size_t at_risk = entries.size();
  std::size_t i = 0;
  while (i < entries.size()) {
    const double t = entries[i].time;
    std::size_t events = 0;
    std::size_t leaving = 0;
    while (i < entries.size() && entries[i].time == t) {
      events += entries[i].event;
      ++leaving;
      ++i;
    }
    if (events > 0) {
      survival *= 1.0 - static_cast<double>(events) / static_cast<double>(at_risk);
      curve_.push_back({t, survival, at_risk, events});
    }
    at_risk -= leaving;
  }
}

KaplanMeier::KaplanMeier(std::span<const double> durations)
    : KaplanMeier(durations, std::vector<std::uint8_t>(durations.size(), 1)) {}

double KaplanMeier::survival_at(double t) const noexcept {
  double s = 1.0;
  for (const auto& p : curve_) {
    if (p.time > t) break;
    s = p.survival;
  }
  return s;
}

double KaplanMeier::median() const noexcept {
  for (const auto& p : curve_) {
    if (p.survival <= 0.5) return p.time;
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<HazardBin> discrete_hazard(std::span<const double> durations,
                                       std::span<const double> edges) {
  if (edges.size() < 2) throw std::invalid_argument("discrete_hazard: need >=2 edges");
  std::vector<double> sorted(durations.begin(), durations.end());
  std::sort(sorted.begin(), sorted.end());

  std::vector<HazardBin> bins;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    HazardBin bin;
    bin.lo = edges[i];
    bin.hi = edges[i + 1];
    const auto enter = std::lower_bound(sorted.begin(), sorted.end(), bin.lo);
    const auto leave = std::lower_bound(enter, sorted.end(), bin.hi);
    bin.at_risk = static_cast<std::size_t>(sorted.end() - enter);
    bin.events = static_cast<std::size_t>(leave - enter);
    bins.push_back(bin);
  }
  return bins;
}

}  // namespace hpcfail::stats
