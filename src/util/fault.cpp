#include "util/fault.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <optional>
#include <stdexcept>

#include "util/metrics.hpp"

namespace hpcfail::util {

namespace {

std::atomic<FaultInjector*> g_injector{nullptr};

/// Index of `name` in kFaultSites, for the lookups by run-time name.
std::optional<std::size_t> site_index(std::string_view name) {
  const auto* it = std::find(std::begin(kFaultSites), std::end(kFaultSites), name);
  if (it == std::end(kFaultSites)) return std::nullopt;
  return static_cast<std::size_t>(it - std::begin(kFaultSites));
}

bool same_call_point(const std::source_location& a, const std::source_location& b) {
  return a.line() == b.line() && a.column() == b.column() &&
         std::string_view(a.file_name()) == b.file_name();
}

void note_fire(std::string_view site) {
  if (MetricsRegistry* reg = metrics()) {
    reg->counter("hpcfail.fault.injected").increment();
    const std::string layer(site.substr(0, site.find('.')));
    reg->counter("hpcfail." + layer + ".faults_injected").increment();  // hpcfail-lint: allow(metric-naming) -- completed with the site's layer segment
  }
}

}  // namespace

void FaultInjector::arm(std::string_view site, std::uint64_t nth) {
  const auto index = site_index(site);
  if (!index) {
    throw std::invalid_argument("FaultInjector: unknown fault site '" +
                                std::string(site) + "'");
  }
  const std::scoped_lock lock(mutex_);
  SiteState& state = states_[*index];
  state = SiteState{};
  state.armed = true;
  state.nth = std::max<std::uint64_t>(1, nth);
}

void FaultInjector::arm_spec(std::string_view spec) {
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) {
      throw std::invalid_argument(
          "FaultInjector: empty entry in fault spec (grammar: "
          "<site>[:<n>][,<site>[:<n>]...])");
    }
    const std::size_t colon = entry.find(':');
    std::uint64_t nth = 1;
    if (colon != std::string_view::npos) {
      const std::string_view count = entry.substr(colon + 1);
      const auto [ptr, ec] =
          std::from_chars(count.data(), count.data() + count.size(), nth);
      if (ec != std::errc{} || ptr != count.data() + count.size() || nth == 0) {
        throw std::invalid_argument("FaultInjector: bad hit count in '" +
                                    std::string(entry) + "' (expected <site>:<n>, n >= 1)");
      }
    }
    arm(entry.substr(0, colon), nth);
    if (end == spec.size()) break;
  }
}

bool FaultInjector::hit(std::size_t site, std::source_location where) noexcept {
  const std::scoped_lock lock(mutex_);
  SiteState& state = states_[site];
  if (!state.armed) return false;
  if (state.hits == 0) {
    state.first_caller = where;
  } else if (!same_call_point(state.first_caller, where)) {
    state.second_caller = true;
  }
  ++state.hits;
  if (state.fired || state.hits != state.nth) return false;
  state.fired = true;
  return true;
}

std::uint64_t FaultInjector::hits(std::string_view site) const {
  const auto index = site_index(site);
  const std::scoped_lock lock(mutex_);
  return index ? states_[*index].hits : 0;
}

std::uint64_t FaultInjector::fires(std::string_view site) const {
  const auto index = site_index(site);
  const std::scoped_lock lock(mutex_);
  return index && states_[*index].fired ? 1 : 0;
}

std::uint64_t FaultInjector::total_fires() const {
  const std::scoped_lock lock(mutex_);
  return static_cast<std::uint64_t>(std::count_if(
      states_.begin(), states_.end(), [](const SiteState& state) { return state.fired; }));
}

std::uint64_t FaultInjector::call_points(std::string_view site) const {
  const auto index = site_index(site);
  const std::scoped_lock lock(mutex_);
  if (!index || states_[*index].hits == 0) return 0;
  return states_[*index].second_caller ? 2 : 1;
}

std::vector<std::string> FaultInjector::summary() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const SiteState& state = states_[i];
    if (!state.armed) continue;
    out.push_back(std::string(kFaultSites[i]) +
                  (state.fired ? ": fired on hit " + std::to_string(state.nth)
                               : ": armed for hit " + std::to_string(state.nth) +
                                     ", saw " + std::to_string(state.hits)) +
                  " (hits " + std::to_string(state.hits) + ")");
  }
  return out;
}

std::vector<std::string_view> FaultInjector::unfired() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string_view> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].armed && !states_[i].fired) out.push_back(kFaultSites[i]);
  }
  return out;
}

void install_fault_injector(FaultInjector* injector) noexcept {
  g_injector.store(injector, std::memory_order_release);
}

bool fault_should_fire(std::size_t site, std::source_location where) noexcept {
  FaultInjector* injector = g_injector.load(std::memory_order_relaxed);
  if (injector == nullptr) return false;
  if (!injector->hit(site, where)) return false;
  note_fire(kFaultSites[site]);
  return true;
}

}  // namespace hpcfail::util
