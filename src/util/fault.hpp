#pragma once
// Deterministic pipeline fault injection (tsuba FaultTest style).
//
// A *fault site* is a named point in production code where a failure can be
// provoked on demand:
//
//   if (HPCFAIL_FAULT_SITE("ingest.read.badbit")) in_.setstate(std::ios::badbit);
//
// The macro answers "should this site fire on this hit?".  The site decides
// what the fault *is* (a torn chunk, a stream badbit, a std::bad_alloc...);
// the injector only decides *when*.  Cost discipline, same as the metrics
// layer (util/metrics.hpp): with no injector installed a site is one relaxed
// atomic load plus a predictable branch — no locks, no clock reads, no
// allocation — so sites can sit on the ingest hot path permanently.
//
// Arming:
//   - programmatic: FaultInjector inj; inj.arm("ingest.read.badbit", 2);
//     install_fault_injector(&inj);  ... run ...  install_fault_injector(nullptr);
//   - schedule spec (the HPCFAIL_FAULT env grammar, also `hpcfail <subcommand>
//     --fault`): "<site>[:<n>][,<site>[:<n>]...]" — fire the n-th hit of each
//     listed site (1-based; ":<n>" defaults to 1).  Example:
//       HPCFAIL_FAULT=ingest.read.torn_chunk:3,store.append_batch.bad_alloc
//
// Each armed site fires exactly once, on its n-th hit; hits are counted per
// injector, so a fresh FaultInjector per run gives deterministic schedules.
// (Sites on serialized paths — the chunk reader, FIFO retirement, the
// writers — hit in a fixed order; a site inside a pool-parallel parse task
// fires on *some* n-th hit under pool scheduling.)
//
// Site names follow the metric-name style: lowercase snake_case dot
// segments, `<layer>.<component>.<kind>`.  kFaultSites below lists every
// site, and the build holds both sides of that list: a static_assert keeps
// it sorted, unique and well-formed, and HPCFAIL_FAULT_SITE resolves its
// literal through the consteval fault_site(), so a misspelt or unlisted
// name does not compile.  The sweep in tests/faultinject_test.cpp arms
// every entry and requires it to fire from exactly one call point.
//
// When a site fires and a MetricsRegistry is installed, the injector bumps
// `hpcfail.fault.injected` plus the per-layer counter
// `hpcfail.<layer>.faults_injected` (layer = first site-name segment), so a
// faulted run is visible in the same metrics export the tests assert on.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <source_location>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::util {

/// The site inventory: every HPCFAIL_FAULT_SITE in the tree, sorted.
inline constexpr std::string_view kFaultSites[] = {
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

/// True when `sites` is sorted, free of duplicates, and every name is
/// `<layer>.<component>.<kind>`: at least three dot-separated segments,
/// each lowercase letters and digits joined by single underscores.
constexpr bool valid_fault_inventory(std::span<const std::string_view> sites) noexcept {
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (i > 0 && !(sites[i - 1] < sites[i])) return false;
    std::size_t segments = 1;
    char prev = '.';
    for (const char c : sites[i]) {
      if (c == '.' || c == '_') {
        if (prev == '.' || prev == '_') return false;
        if (c == '.') ++segments;
      } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) {
        return false;
      }
      prev = c;
    }
    if (prev == '.' || prev == '_' || segments < 3) return false;
  }
  return true;
}

static_assert(valid_fault_inventory(kFaultSites),
              "kFaultSites must be sorted, unique and <layer>.<component>.<kind>");

/// Index of `name` in kFaultSites.  consteval, so HPCFAIL_FAULT_SITE's
/// literal is looked up while compiling and an unknown name is an error.
consteval std::size_t fault_site(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kFaultSites); ++i) {
    if (kFaultSites[i] == name) return i;
  }
  throw "fault site is not listed in util::kFaultSites";
}

/// Deterministic schedule of named fault points.  Thread-safe: hit counting
/// takes a mutex, which is acceptable because an injector is only installed
/// in tests and fault-repro runs (the dark path never reaches it).
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `site` to fire on its `nth` hit (1-based; 0 is clamped to 1).
  /// Unknown site names throw std::invalid_argument — kFaultSites is the
  /// source of truth, so a typo cannot silently arm nothing.
  void arm(std::string_view site, std::uint64_t nth = 1);

  /// Parses and arms a "<site>[:<n>][,<site>[:<n>]...]" spec (the
  /// HPCFAIL_FAULT grammar).  Throws std::invalid_argument on malformed
  /// specs or unknown sites.
  void arm_spec(std::string_view spec);

  /// Called (via fault_should_fire) on every hit of site `site`, an index
  /// into kFaultSites, from the call point `where`; returns true exactly
  /// when this hit is the scheduled n-th of an armed site that has not
  /// fired yet.
  [[nodiscard]] bool hit(std::size_t site, std::source_location where) noexcept;

  /// Hits observed for `site` since arming (0 when not armed: unarmed sites
  /// are not tracked — they cost nothing to pass through).
  [[nodiscard]] std::uint64_t hits(std::string_view site) const;
  /// 1 once the armed site has fired, else 0.
  [[nodiscard]] std::uint64_t fires(std::string_view site) const;
  [[nodiscard]] std::uint64_t total_fires() const;
  /// Distinct call points that hit the armed `site`, counted up to 2: a
  /// site is one call point, so 2 means its name is used in two places.
  [[nodiscard]] std::uint64_t call_points(std::string_view site) const;

  /// "site fired after N hits" lines for every armed site (FaultTestReport
  /// flavor), for the CLI's post-run summary.
  [[nodiscard]] std::vector<std::string> summary() const;

  /// Armed sites that have not fired, in inventory order: a repro run that
  /// ends with one exercised nothing it was asked to.
  [[nodiscard]] std::vector<std::string_view> unfired() const;

 private:
  struct SiteState {
    bool armed = false;
    std::uint64_t nth = 1;
    std::uint64_t hits = 0;
    bool fired = false;
    std::source_location first_caller;  ///< call point of the first hit
    bool second_caller = false;         ///< a hit came from another call point
  };

  mutable std::mutex mutex_;
  std::array<SiteState, std::size(kFaultSites)> states_{};
};

/// Installs `injector` as the process-wide schedule (nullptr disarms).  The
/// caller keeps ownership and must keep it alive — and drain any pool
/// running instrumented tasks — until after uninstalling.
void install_fault_injector(FaultInjector* injector) noexcept;

/// The macro body: one relaxed atomic load when dark; otherwise asks the
/// injector and, on fire, bumps the fault metrics counters.
[[nodiscard]] bool fault_should_fire(std::size_t site, std::source_location where) noexcept;

}  // namespace hpcfail::util

/// Marks a named fault point; evaluates to true when the site fires now.
/// The enclosing code performs the actual fault (setstate, throw, garble).
#define HPCFAIL_FAULT_SITE(site)                                            \
  (::hpcfail::util::fault_should_fire(::hpcfail::util::fault_site(site), \
                                      ::std::source_location::current()))
