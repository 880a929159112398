// Streaming-ingestion driver: parses an on-disk corpus directory through
// the chunked bounded-memory path and reports throughput (MB/s and
// records/s) plus the process peak RSS.  With --preset it first simulates
// and writes a corpus, so the tool doubles as a self-contained smoke
// benchmark of the write -> stream -> store pipeline.
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "parsers/snapshot.hpp"
#include "platform/system_config.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using namespace hpcfail;

void usage(std::FILE* to) {
  std::fputs(
      "usage: hpcfail-ingest [--dir DIR | --preset S1..S5] [options]\n"
      "\n"
      "Streams a corpus directory (manifest.txt + per-source log files)\n"
      "through the chunked, bounded-memory ingestion path and prints\n"
      "throughput and peak-RSS figures.\n"
      "\n"
      "  --dir DIR          ingest an existing corpus directory\n"
      "  --preset NAME      simulate system S1..S5, write a corpus to a\n"
      "                     temp directory, then ingest it\n"
      "  --days N           simulated days for --preset (default 7)\n"
      "  --seed N           simulation seed for --preset (default 42)\n"
      "  --threads N        pool threads (default: hardware concurrency)\n"
      "  --chunk-bytes N    chunk size in bytes (default 256 KiB)\n"
      "  --keep             keep the --preset temp directory\n"
      "  --snapshot-out F   after a clean ingest, save the parsed corpus as\n"
      "                     an hpcfail.store.v1 snapshot (see hpcfail-store)\n"
      "  --metrics-out F    write pipeline counters/histograms to F (JSON)\n"
      "  --trace-out F      write spans to F (chrome://tracing JSON)\n"
      "  --fault SPEC       arm deterministic fault sites for repro:\n"
      "                     <site>[:<n>][,<site>[:<n>]...] fires the n-th\n"
      "                     hit of each site (also via HPCFAIL_FAULT env;\n"
      "                     --fault list prints the site inventory)\n"
      "\n"
      "--metrics-out, --trace-out and --fault also accept --opt=VALUE form.\n"
      "A faulted run that ends in a structured ingest error exits 3 (the\n"
      "partial-result accounting is still printed); otherwise one whose\n"
      "armed site never fired exits 2.\n",
      to);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::size_t dir_log_bytes(const std::string& dir) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < logmodel::kLogSourceCount; ++i) {
    const auto path = std::filesystem::path(dir) /
                      loggen::source_file_name(static_cast<logmodel::LogSource>(i));
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec) total += static_cast<std::size_t>(size);
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::optional<platform::SystemName> preset;
  int days = 7;
  std::uint64_t seed = 42;
  std::size_t threads = 0;
  bool keep = false;
  std::string snapshot_path;
  std::string metrics_path;
  std::string trace_path;
  std::string fault_spec;
  parsers::IngestOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hpcfail-ingest: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric flags parse strictly: a malformed or out-of-range value is
    // a usage error, reported before anything runs.
    const auto number = [&](std::uint64_t min,
                            std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
      const char* flag = argv[i];
      const char* text = value();
      const auto n = util::parse_u64(text);
      if (!n || *n < min || *n > max) {
        std::fprintf(stderr, "hpcfail-ingest: %s expects an integer in [%llu, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text);
        std::exit(2);
      }
      return *n;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--dir") {
      dir = value();
    } else if (arg == "--preset") {
      preset = platform::system_from_string(value());
      if (!preset) {
        std::fputs("hpcfail-ingest: --preset expects S1..S5\n", stderr);
        return 2;
      }
    } else if (arg == "--days") {
      days = static_cast<int>(number(1, std::numeric_limits<int>::max()));
    } else if (arg == "--seed") {
      seed = number(0);
    } else if (arg == "--threads") {
      threads = static_cast<std::size_t>(number(0));
    } else if (arg == "--chunk-bytes") {
      options.chunk_bytes = static_cast<std::size_t>(number(1));
    } else if (arg == "--keep") {
      keep = true;
    } else if (arg == "--snapshot-out") {
      snapshot_path = value();
    } else if (arg.rfind("--snapshot-out=", 0) == 0) {
      snapshot_path = arg.substr(std::string_view("--snapshot-out=").size());
    } else if (arg == "--metrics-out") {
      metrics_path = value();
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_path = arg.substr(std::string_view("--metrics-out=").size());
    } else if (arg == "--trace-out") {
      trace_path = value();
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(std::string_view("--trace-out=").size());
    } else if (arg == "--fault") {
      fault_spec = value();
    } else if (arg.rfind("--fault=", 0) == 0) {
      fault_spec = arg.substr(std::string_view("--fault=").size());
    } else {
      std::fprintf(stderr, "hpcfail-ingest: unknown option '%s'\n", argv[i]);
      usage(stderr);
      return 2;
    }
  }
  if (fault_spec == "list") {
    for (const auto site : util::kFaultSites) {
      std::printf("%.*s\n", static_cast<int>(site.size()), site.data());
    }
    return 0;
  }
  if (dir.empty() == !preset) {
    std::fputs("hpcfail-ingest: pass exactly one of --dir or --preset\n", stderr);
    usage(stderr);
    return 2;
  }

  // Sinks live in main's frame so they outlive the pool inside the try
  // block; installed only when the matching flag was passed.
  util::MetricsRegistry registry;
  util::TraceRecorder recorder;
  util::FaultInjector injector;
  if (!metrics_path.empty()) util::install_metrics(&registry);
  if (!trace_path.empty()) util::install_trace(&recorder);
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("HPCFAIL_FAULT")) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    try {
      injector.arm_spec(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hpcfail-ingest: %s\n", e.what());
      return 2;
    }
    util::install_fault_injector(&injector);
  }

  try {
    bool scratch = false;
    if (preset) {
      dir = "/tmp/hpcfail_ingest_corpus";
      scratch = !keep;
      std::printf("simulating %d day(s), seed %llu ...\n", days,
                  static_cast<unsigned long long>(seed));
      const auto sim =
          faultsim::Simulator(faultsim::scenario_preset(*preset, days, seed)).run();
      std::filesystem::remove_all(dir);
      loggen::write_corpus(loggen::build_corpus(sim), dir);
    }

    const std::size_t bytes = dir_log_bytes(dir);
    util::ThreadPool pool(threads);
    options.pool = &pool;

    const auto t0 = std::chrono::steady_clock::now();
    const auto parsed = parsers::ingest_files(dir, options);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();

    std::printf("corpus dir      %s\n", dir.c_str());
    std::printf("system          %s\n", parsed.system.label.c_str());
    std::printf("log bytes       %.1f MB\n", static_cast<double>(bytes) / 1e6);
    std::printf("lines           %zu (%zu skipped)\n", parsed.total_lines,
                parsed.skipped_lines);
    std::printf("records         %zu\n", parsed.parsed_records);
    std::printf("jobs            %zu\n", parsed.jobs.size());
    std::printf("threads         %zu\n", pool.size());
    std::printf("elapsed         %.3f s\n", seconds);
    std::printf("throughput      %.1f MB/s, %.0f records/s\n",
                static_cast<double>(bytes) / 1e6 / seconds,
                static_cast<double>(parsed.parsed_records) / seconds);
    std::printf("peak rss        %.1f MB\n", peak_rss_mb());

    if (!metrics_path.empty()) {
      std::ofstream(metrics_path) << registry.to_json() << '\n';
      std::printf("metrics         %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream(trace_path) << recorder.to_chrome_json() << '\n';
      std::printf("trace           %s\n", trace_path.c_str());
    }
    // A snapshot is only written from a clean parse — a partial store must
    // never masquerade as a persisted corpus.  It is written before the
    // fault summary, so the summary counts the snapshot sites' hits too.
    std::optional<util::SnapshotError> save_error;
    if (parsed.ok() && !snapshot_path.empty()) {
      save_error = parsers::save_snapshot(parsed, snapshot_path);
      if (!save_error) std::printf("snapshot        %s\n", snapshot_path.c_str());
    }
    if (!fault_spec.empty()) {
      for (const auto& line : injector.summary()) {
        std::printf("fault           %s\n", line.c_str());
      }
    }
    if (scratch) std::filesystem::remove_all(dir);
    if (!parsed.ok()) {
      std::fprintf(stderr, "hpcfail-ingest: ingest error: %s\n",
                   parsed.error->to_string().c_str());
      std::fprintf(stderr,
                   "hpcfail-ingest: partial result above covers %zu records "
                   "(%zu lines seen, %zu skipped)\n",
                   parsed.parsed_records, parsed.total_lines, parsed.skipped_lines);
      return 3;
    }
    if (save_error) {
      std::fprintf(stderr, "hpcfail-ingest: %s\n", save_error->to_string().c_str());
      return 3;
    }
    // A clean run that never reached an armed site exercised nothing it
    // was asked to.
    const std::vector<std::string_view> unfired = injector.unfired();
    for (const std::string_view site : unfired) {
      std::fprintf(stderr, "hpcfail-ingest: armed fault site %.*s never fired\n",
                   static_cast<int>(site.size()), site.data());
    }
    return unfired.empty() ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpcfail-ingest: %s\n", e.what());
    return 1;
  }
}
