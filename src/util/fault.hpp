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
//   - schedule spec (the HPCFAIL_FAULT env grammar, also hpcfail-ingest
//     --fault): "<site>[:<n>][,<site>[:<n>]...]" — fire the n-th hit of each
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
// segments, `<layer>.<component>.<kind>`.  Every HPCFAIL_FAULT_SITE literal
// in the tree must appear in FaultInjector::sites() (the sweep harness in
// tests/faultinject_test.cpp enumerates that inventory) — hpcfail-lint's
// fault-sites check keeps the two in sync and the names unique.
//
// When a site fires and a MetricsRegistry is installed, the injector bumps
// `hpcfail.fault.injected` plus the per-layer counter
// `hpcfail.<layer>.faults_injected` (layer = first site-name segment), so a
// faulted run is visible in the same metrics export the tests assert on.

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::util {

/// Deterministic schedule of named fault points.  Thread-safe: hit counting
/// takes a mutex, which is acceptable because an injector is only installed
/// in tests and fault-repro runs (the dark path never reaches it).
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `site` to fire on its `nth` hit (1-based; 0 is clamped to 1).
  /// Unknown site names throw std::invalid_argument — sites() is the source
  /// of truth, so a typo cannot silently arm nothing.
  void arm(std::string_view site, std::uint64_t nth = 1);

  /// Parses and arms a "<site>[:<n>][,<site>[:<n>]...]" spec (the
  /// HPCFAIL_FAULT grammar).  Throws std::invalid_argument on malformed
  /// specs or unknown sites.
  void arm_spec(std::string_view spec);

  /// Called (via fault_should_fire) on every hit of an armed-or-not site;
  /// returns true exactly when this hit is the scheduled n-th of an armed
  /// site that has not fired yet.
  [[nodiscard]] bool hit(std::string_view site) noexcept;

  /// Hits observed for `site` since arming (0 when not armed: unarmed sites
  /// are not tracked — they cost nothing to pass through).
  [[nodiscard]] std::uint64_t hits(std::string_view site) const;
  /// 1 once the armed site has fired, else 0.
  [[nodiscard]] std::uint64_t fires(std::string_view site) const;
  [[nodiscard]] std::uint64_t total_fires() const;

  /// "site fired after N hits" lines for every armed site (FaultTestReport
  /// flavor), for the CLI's post-run summary.
  [[nodiscard]] std::vector<std::string> summary() const;

  /// The static inventory of every HPCFAIL_FAULT_SITE in the tree, sorted.
  /// The sweep harness arms each entry one at a time; hpcfail-lint's
  /// fault-sites check fails if code and inventory drift.
  [[nodiscard]] static std::span<const std::string_view> sites();

 private:
  struct SiteState {
    std::uint64_t nth = 1;
    std::uint64_t hits = 0;
    bool fired = false;
  };

  mutable std::mutex mutex_;
  std::map<std::string, SiteState, std::less<>> armed_;
};

/// Installs `injector` as the process-wide schedule (nullptr disarms).  The
/// caller keeps ownership and must keep it alive — and drain any pool
/// running instrumented tasks — until after uninstalling.
void install_fault_injector(FaultInjector* injector) noexcept;

/// The macro body: one relaxed atomic load when dark; otherwise asks the
/// injector and, on fire, bumps the fault metrics counters.
[[nodiscard]] bool fault_should_fire(const char* site) noexcept;

}  // namespace hpcfail::util

/// Marks a named fault point; evaluates to true when the site fires now.
/// The enclosing code performs the actual fault (setstate, throw, garble).
#define HPCFAIL_FAULT_SITE(site) (::hpcfail::util::fault_should_fire(site))
