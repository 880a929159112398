// perfbench: the repository benchmark's measuring program.
//
//   perfbench prepare --workload W --seed N --dir D [--seconds S] [--tiny]
//   perfbench run     --workload W --seed N --dir D --seconds S --trace 0|1
//                     [--tiny] [--commit ID]
//
// `prepare` generates the workload's inputs into D; `run` measures the
// workload on them in a fresh process (so peak RSS is the workload's own)
// and prints "# ..." note lines — host block, workload figures, per-layer
// ledger, mismatches — followed by one JSON result line:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
// Exit status: 0 when every correctness check passed, 1 on a mismatch,
// 2 on a usage or set-up error.  perfbench/run.py builds this program and
// drives prepare and run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "inputs.hpp"
#include "util/scan.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

void print_host(const perfbench::Options& opt) {
  std::printf("# host.cpu_model: %s\n", cpu_model().c_str());
  std::printf("# host.nproc: %u\n", std::thread::hardware_concurrency());
  std::printf("# host.scan_isa: %s\n",
              std::string(hpcfail::util::scan::isa_name(hpcfail::util::scan::active_isa()))
                  .c_str());
  std::printf("# host.compiler: %s\n", PERFBENCH_COMPILER);
  std::printf("# host.build_type: %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("# host.commit: %s\n", opt.commit.c_str());
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

void print_notes(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %s %s = %.6g %s\n", tag, m.name.c_str(), m.value, m.unit.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|run --workload W --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--tiny] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view mode = argv[1];
  perfbench::Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--dir") {
      opt.dir = argv[++i];
    } else if (arg == "--commit") {
      opt.commit = argv[++i];
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.dir.empty() || !(opt.seconds > 0.0)) return usage();

  try {
    if (mode == "prepare") {
      perfbench::prepare(opt);
      return 0;
    }
    if (mode != "run") return usage();
    print_host(opt);
    std::printf("# workload: %s seed=%llu seconds=%g trace=%d tiny=%d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
                opt.tiny ? 1 : 0);
    perfbench::Outcome out = perfbench::run_workload(opt);
    const std::vector<Metric>& metrics = opt.trace ? out.per_layer : out.end_to_end;
    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value)) out.problems.push_back("metric " + m.name + " is not finite");
    }
    print_notes("detail", out.detail);
    print_notes(opt.trace ? "layer" : "e2e", metrics);
    std::printf("# error_rate = %.6g failed/attempted\n",
                out.attempted == 0 ? 0.0
                                   : static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted));
    for (const std::string& p : out.problems) std::printf("# mismatch: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                out.correct() ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(1, out.attempted)),
                static_cast<unsigned long long>(out.failed), json_metrics(metrics).c_str());
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", std::string(mode).c_str(), e.what());
    return 2;
  }
}
