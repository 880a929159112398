// Thread-safe metrics registry for pipeline observability: monotonic
// counters, last-write gauges and fixed-bucket histograms, exported as one
// JSON document (schema "hpcfail.metrics.v1", keys sorted, pinned by
// tests/metrics_test.cpp).
//
// Cost model — the registry is designed around "near-zero when dark":
//   - No registry installed: an instrumentation site pays one relaxed
//     atomic load of the global pointer plus a predictable branch.  No
//     clock reads, no allocation, no locking.
//   - Registry installed: instrument lookup (name -> slot) takes a mutex
//     once per site invocation OR once per bind when the caller caches the
//     returned reference (hot paths do; see ThreadPool).  The increments
//     themselves are relaxed atomics — safe from any thread, no lock.
//
// Naming convention, enforced by hpcfail-lint's metric-naming check:
// `hpcfail.<layer>.<snake_case>` (two or more dot segments after the
// `hpcfail` prefix, each lowercase snake_case), e.g.
// `hpcfail.ingest.bytes_read`, `hpcfail.pool.queue_depth`.
//
// Lifetime: instruments live as long as their registry; callers that cache
// Counter*/Gauge*/Histogram* must not outlive it.  install_metrics(nullptr)
// disarms new lookups but does not free anything.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hpcfail::util {

/// Monotonic counter.  add() of a negative delta is impossible by type.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins gauge with relative adjustment (queue depths etc.).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket edges in
/// ascending order; an implicit +inf bucket catches the overflow, so
/// counts() has bounds.size() + 1 entries.  observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Owns every instrument; lookups create on first use.  Thread-safe: the
/// name maps are mutex-protected, the returned references are stable for
/// the registry's lifetime (instruments are never destroyed or moved).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// Re-registering an existing histogram with different bucket bounds is
  /// a programming error and throws std::logic_error (fail loud rather
  /// than silently mis-bucketing).
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds);

  /// Snapshot views for tests and reporting (name-sorted).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters() const;

  /// {"schema":"hpcfail.metrics.v1","counters":{...},"gauges":{...},
  ///  "histograms":{name:{"bounds":[...],"counts":[...],"count":N,"sum":X}}}
  /// Keys sorted; deterministic for identical instrument states.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Installs `registry` as the process-wide sink (nullptr disarms).  The
/// caller keeps ownership and must keep it alive until after the last
/// instrumented operation completes (drain pools before uninstalling).
void install_metrics(MetricsRegistry* registry) noexcept;

/// The installed registry, or nullptr when metrics are dark.  One relaxed
/// atomic load — cheap enough for per-chunk/per-task call sites.
[[nodiscard]] MetricsRegistry* metrics() noexcept;

/// Monotonic count of install_metrics() calls (0 before the first).
/// Long-lived consumers that cache instrument pointers must invalidate on
/// generation change, NOT on registry-address change: a fresh registry can
/// reuse a dead one's address, so address comparison can alias a stale
/// binding to freed instruments.
[[nodiscard]] std::uint64_t metrics_generation() noexcept;

}  // namespace hpcfail::util
