// Shared harness for the figure/table reproduction benches.
//
// Every bench runs the full end-to-end path (simulate -> render raw text ->
// parse -> analyze), prints the paper's reported numbers next to the
// measured ones, and emits a shape verdict per claim:
//   PASS  measured inside the paper's reported range,
//   NEAR  within 25% (relative) of the nearest bound,
//   FAIL  otherwise.
// Exit code is 0 unless a claim FAILs, so `ctest`-style loops catch
// regressions in the reproduction itself.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/engine.hpp"
#include "core/root_cause.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace hpcfail::bench {

namespace detail {

/// Process-lifetime observability sinks for the benches.  The fig*/tab*
/// binaries have no flag parsing, so the sinks arm from the environment:
///   HPCFAIL_METRICS_OUT=metrics.json  HPCFAIL_TRACE_OUT=trace.json  ./fig03
/// Sinks accumulate across every run_pipeline call in the process and the
/// files are written once, during static destruction at exit.  With neither
/// variable set nothing is installed and the pipeline runs dark.
struct ObservabilitySinks {
  std::string metrics_path;
  std::string trace_path;
  util::MetricsRegistry registry;
  util::TraceRecorder recorder;

  ObservabilitySinks() {
    if (const char* p = std::getenv("HPCFAIL_METRICS_OUT")) metrics_path = p;
    if (const char* p = std::getenv("HPCFAIL_TRACE_OUT")) trace_path = p;
    if (!metrics_path.empty()) util::install_metrics(&registry);
    if (!trace_path.empty()) util::install_trace(&recorder);
  }
  ~ObservabilitySinks() {
    util::install_metrics(nullptr);
    util::install_trace(nullptr);
    if (!metrics_path.empty()) std::ofstream(metrics_path) << registry.to_json() << '\n';
    if (!trace_path.empty()) std::ofstream(trace_path) << recorder.to_chrome_json() << '\n';
  }
};

inline void observability_bootstrap() { static ObservabilitySinks sinks; }

}  // namespace detail

struct Pipeline {
  faultsim::SimulationResult sim;
  loggen::Corpus corpus;
  parsers::ParsedCorpus parsed;
  /// Full engine output over the scenario window (lead times, external
  /// correspondence, clusters, breakdowns, ...).
  core::AnalysisResult analysis;
  /// Convenience alias of analysis.failures — what most benches consume.
  std::vector<core::AnalyzedFailure> failures;
};

/// Runs the canonical path on an already-simulated system: render raw
/// text, parse it back, then one AnalysisEngine run over the scenario
/// window.  Benches that need non-default analysis knobs pass a config.
inline Pipeline run_pipeline(faultsim::SimulationResult sim,
                             const core::AnalysisConfig& config = {}) {
  detail::observability_bootstrap();
  Pipeline p{std::move(sim), {}, {}, {}, {}};
  {
    util::TraceSpan span("hpcfail.bench.render");
    p.corpus = loggen::build_corpus(p.sim);
  }
  {
    util::TraceSpan span("hpcfail.bench.parse");
    p.parsed = parsers::parse_corpus(p.corpus);
  }
  {
    util::TraceSpan span("hpcfail.bench.analyze");
    p.analysis = core::AnalysisEngine(config).analyze(
        p.parsed.store, &p.parsed.jobs, p.sim.config.begin, p.sim.config.end());
  }
  p.failures = p.analysis.failures;
  return p;
}

/// Runs the canonical path on a scenario.
inline Pipeline run_pipeline(faultsim::ScenarioConfig scenario,
                             const core::AnalysisConfig& config = {}) {
  detail::observability_bootstrap();
  auto sim = [&scenario] {
    util::TraceSpan span("hpcfail.bench.simulate");
    return faultsim::Simulator(std::move(scenario)).run();
  }();
  return run_pipeline(std::move(sim), config);
}

inline Pipeline run_system(platform::SystemName system, int days, std::uint64_t seed) {
  return run_pipeline(faultsim::scenario_preset(system, days, seed));
}

/// Collects claim verdicts and renders the final summary.
class ShapeCheck {
 public:
  explicit ShapeCheck(std::string experiment) : experiment_(std::move(experiment)) {
    std::cout << "==== " << experiment_ << " ====\n";
  }

  ~ShapeCheck() {
    std::cout << "---- " << experiment_ << ": " << passed_ << " PASS, " << near_
              << " NEAR, " << failed_ << " FAIL ----\n";
  }

  /// Claims measured lies in the paper's [lo, hi] (inclusive).
  void in_range(const std::string& claim, double measured, double lo, double hi) {
    const char* verdict;
    if (measured >= lo && measured <= hi) {
      verdict = "PASS";
      ++passed_;
    } else {
      const double bound = measured < lo ? lo : hi;
      const double rel =
          bound != 0.0 ? std::abs(measured - bound) / std::abs(bound) : std::abs(measured);
      if (rel <= 0.25) {
        verdict = "NEAR";
        ++near_;
      } else {
        verdict = "FAIL";
        ++failed_;
      }
    }
    std::printf("  [%s] %-58s measured %10.3f   paper [%g, %g]\n", verdict, claim.c_str(),
                measured, lo, hi);
  }

  /// Claims a >= b (ordering claims: "who wins").
  void greater(const std::string& claim, double a, double b) {
    const bool ok = a >= b;
    if (ok) {
      ++passed_;
    } else {
      ++failed_;
    }
    std::printf("  [%s] %-58s %.3f vs %.3f\n", ok ? "PASS" : "FAIL", claim.c_str(), a, b);
  }

  [[nodiscard]] int exit_code() const noexcept { return failed_ == 0 ? 0 : 1; }

 private:
  std::string experiment_;
  int passed_ = 0;
  int near_ = 0;
  int failed_ = 0;
};

}  // namespace hpcfail::bench
