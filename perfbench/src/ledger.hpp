// The traced run's per-layer ledger.  The benchmark wraps every public call
// it makes into a layer in a Span named "perfbench.<layer>.<call>", and
// every operation (one diagnosis, one suite, one request) in a root Span
// "perfbench.op".  Spans carry the operation's id, so the spans of one
// operation can be told apart in the exported trace.  Spans the program
// already emits ("hpcfail.<layer>.*", via util::TraceSpan) land in the same
// util::TraceRecorder.  aggregate() then nests the spans of each thread by
// containment and charges every span's self time (its duration minus what
// its child spans cover) to the layer that owns it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/trace.hpp"

namespace perfbench {

/// The repository modules the ledger has a row for, in pipeline order.
inline constexpr std::string_view kLayers[] = {"faultsim", "loggen",   "parsers", "logmodel",
                                               "jobs",     "snapshot", "core",    "serve"};

/// RAII span recorded into the installed util::TraceRecorder (inert when
/// tracing is dark).  `name` is "<layer>.<call>" or "op".
class Span {
 public:
  Span(std::string_view name, std::uint64_t id) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  hpcfail::util::TraceRecorder* recorder_;
  std::string name_;
  std::int64_t start_us_ = 0;
};

struct LedgerTotals {
  /// Self time per kLayers entry, on the threads that run operations (pool
  /// workers' spans overlap the waiting operation thread, so they are not
  /// added in).
  std::map<std::string, double> self_ms;
  /// Summed duration per span name ("perfbench.parsers.ingest",
  /// "hpcfail.ingest.parse_chunk", ...), on every thread.
  std::map<std::string, double> span_ms;
  double unaccounted_ms = 0.0;  ///< inside an operation, in no layer's span
  std::uint64_t ops = 0;        ///< root "op" spans
};

/// Aggregates every event of `recorder` into per-layer self times.
[[nodiscard]] LedgerTotals aggregate(const hpcfail::util::TraceRecorder& recorder);

}  // namespace perfbench
