// The four benchmark workloads.  Each runs for Options::seconds against the
// inputs `prepare` wrote, checks the program's outputs outside its timed
// regions, and returns every metric it measured.
//
//   postmortem  ingest_files -> analyze -> markdown_report -> save_snapshot
//               over two on-disk corpora, on a pool of nproc threads
//   reproduce   Simulator::run -> build_corpus -> parse_corpus -> analyze
//               -> report for S1..S5, on a 1-thread pool
//   live_tail   snapshot-booted Server; open-loop tail appends and requests,
//               each request answered with poll_tail() then handle_line()
//   dashboard   the same Server with no tail; two closed-loop clients
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per correctness mismatch
  std::vector<Metric> end_to_end;     ///< the BENCHMARK.json end-to-end set
  std::vector<Metric> per_layer;      ///< the BENCHMARK.json per-layer set (traced run)
  std::vector<Metric> detail;         ///< workload-specific figures, printed as notes

  [[nodiscard]] bool correct() const noexcept { return problems.empty(); }
};

[[nodiscard]] Outcome run_workload(const Options& opt);

}  // namespace perfbench
