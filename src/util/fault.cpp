#include "util/fault.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <stdexcept>

#include "util/metrics.hpp"

namespace hpcfail::util {

namespace {

// The site inventory: every HPCFAIL_FAULT_SITE literal in the tree, sorted.
// hpcfail-lint's fault-sites check enforces that this list and the call
// sites agree in both directions, so the sweep in tests/faultinject_test.cpp
// really does enumerate every injection point.
constexpr std::string_view kSites[] = {
    "faultsim.scenario_io.bad_alloc",  // scenario_to_string allocation failure
    "ingest.parse.bad_alloc",          // chunk parse task allocation failure
    "ingest.read.badbit",              // stream I/O error (badbit) mid-corpus
    "ingest.read.midline_eof",         // stream ends in the middle of a line
    "ingest.read.short_read",          // read() returns fewer bytes than asked
    "ingest.read.torn_chunk",          // chunk bytes garbled in flight
    "ingest.retire.bad_alloc",         // chunk retirement allocation failure
    "loggen.write.badbit",             // corpus log file write error
    "serve.request.parse",             // torn client request line on the protocol boundary
    "serve.tail.read_io",              // tail-file read I/O failure mid-poll
    "store.append_batch.bad_alloc",    // shard append allocation failure
    "store.snapshot.read_io",          // snapshot read/validate I/O failure
    "store.snapshot.write_io",         // snapshot section write I/O failure
    "store.symbol_absorb.bad_alloc",   // symbol-table merge allocation failure
};

std::atomic<FaultInjector*> g_injector{nullptr};

void note_fire(std::string_view site) {
  if (MetricsRegistry* reg = metrics()) {
    reg->counter("hpcfail.fault.injected").increment();
    const std::string layer(site.substr(0, site.find('.')));
    reg->counter("hpcfail." + layer + ".faults_injected").increment();  // hpcfail-lint: allow(metric-naming) -- completed with the site's layer segment
  }
}

}  // namespace

void FaultInjector::arm(std::string_view site, std::uint64_t nth) {
  const auto inventory = sites();
  if (std::find(inventory.begin(), inventory.end(), site) == inventory.end()) {
    throw std::invalid_argument("FaultInjector: unknown fault site '" +
                                std::string(site) + "'");
  }
  const std::scoped_lock lock(mutex_);
  SiteState& state = armed_[std::string(site)];
  state.nth = std::max<std::uint64_t>(1, nth);
  state.hits = 0;
  state.fired = false;
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

bool FaultInjector::hit(std::string_view site) noexcept {
  const std::scoped_lock lock(mutex_);
  const auto it = armed_.find(site);
  if (it == armed_.end()) return false;
  SiteState& state = it->second;
  ++state.hits;
  if (state.fired || state.hits != state.nth) return false;
  state.fired = true;
  return true;
}

std::uint64_t FaultInjector::hits(std::string_view site) const {
  const std::scoped_lock lock(mutex_);
  const auto it = armed_.find(site);
  return it == armed_.end() ? 0 : it->second.hits;
}

std::uint64_t FaultInjector::fires(std::string_view site) const {
  const std::scoped_lock lock(mutex_);
  const auto it = armed_.find(site);
  return it != armed_.end() && it->second.fired ? 1 : 0;
}

std::uint64_t FaultInjector::total_fires() const {
  const std::scoped_lock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, state] : armed_) total += state.fired ? 1 : 0;
  return total;
}

std::vector<std::string> FaultInjector::summary() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(armed_.size());
  for (const auto& [name, state] : armed_) {
    out.push_back(name + (state.fired ? ": fired on hit " + std::to_string(state.nth)
                                      : ": armed for hit " + std::to_string(state.nth) +
                                            ", saw " + std::to_string(state.hits)) +
                  " (hits " + std::to_string(state.hits) + ")");
  }
  return out;
}

std::span<const std::string_view> FaultInjector::sites() { return kSites; }

void install_fault_injector(FaultInjector* injector) noexcept {
  g_injector.store(injector, std::memory_order_release);
}

bool fault_should_fire(const char* site) noexcept {
  FaultInjector* injector = g_injector.load(std::memory_order_relaxed);
  if (injector == nullptr) return false;
  if (!injector->hit(site)) return false;
  note_fire(site);
  return true;
}

}  // namespace hpcfail::util
