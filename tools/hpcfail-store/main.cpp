// Snapshot driver for the hpcfail.store.v1 binary format: parses a corpus
// once and saves it, loads it back, prints a file's section table, or
// deep-verifies one.  The verify subcommand is the CLI face of the
// corrupt-snapshot discipline: any torn, truncated or bit-flipped file
// exits 3 with the structured error on stderr, never a crash.
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 structured
// snapshot/ingest error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
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
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hpcfail;

void usage(std::FILE* to) {
  std::fputs(
      "usage: hpcfail-store <command> [options]\n"
      "\n"
      "Persists parsed corpora as hpcfail.store.v1 binary snapshots\n"
      "(see FORMATS.md), so repeated analyses skip the text parse.\n"
      "\n"
      "commands:\n"
      "  save --out FILE (--dir DIR | --preset S1..S5)\n"
      "                     ingest a corpus (or simulate one with --days N\n"
      "                     and --seed N) and write the snapshot to FILE\n"
      "  load FILE          load a snapshot and print its summary\n"
      "  info FILE          validate the container and print the section table\n"
      "  verify FILE        container validation plus a full structural\n"
      "                     rebuild; exits 3 when the file is corrupt\n"
      "\n"
      "options:\n"
      "  --dir DIR          corpus directory to ingest (save)\n"
      "  --preset NAME      simulate system S1..S5 instead (save)\n"
      "  --days N           simulated days for --preset (default 7)\n"
      "  --seed N           simulation seed for --preset (default 42)\n"
      "  --threads N        pool threads for ingest (default: hardware)\n"
      "  --out FILE         snapshot path to write (save)\n"
      "  --fault SPEC       arm deterministic fault sites, as in\n"
      "                     hpcfail-ingest (--fault list prints them; the\n"
      "                     HPCFAIL_FAULT env works too).  The summary goes\n"
      "                     to stderr; a run that would exit 0 exits 2 when\n"
      "                     an armed site never fired\n",
      to);
}

void print_summary(const parsers::ParsedCorpus& corpus) {
  std::printf("system          %s\n", corpus.system.label.c_str());
  std::printf("window          %d day(s)\n", corpus.days);
  std::printf("records         %zu\n", corpus.store.size());
  std::printf("symbols         %zu\n", corpus.store.symbols().size());
  std::printf("jobs            %zu\n", corpus.jobs.size());
  std::printf("nodes seen      %zu\n", corpus.store.nodes().size());
  std::printf("lines           %zu (%zu skipped)\n", corpus.total_lines,
              corpus.skipped_lines);
}

int run_save(const std::string& dir, std::optional<platform::SystemName> preset,
             int days, std::uint64_t seed, std::size_t threads,
             const std::string& out_path) {
  std::string corpus_dir = dir;
  bool scratch = false;
  if (preset) {
    corpus_dir = "/tmp/hpcfail_store_corpus";
    scratch = true;
    std::printf("simulating %d day(s), seed %llu ...\n", days,
                static_cast<unsigned long long>(seed));
    const auto sim =
        faultsim::Simulator(faultsim::scenario_preset(*preset, days, seed)).run();
    std::filesystem::remove_all(corpus_dir);
    loggen::write_corpus(loggen::build_corpus(sim), corpus_dir);
  }

  util::ThreadPool pool(threads);
  parsers::IngestOptions options;
  options.pool = &pool;
  const auto parsed = parsers::ingest_files(corpus_dir, options);
  if (scratch) std::filesystem::remove_all(corpus_dir);
  if (!parsed.ok()) {
    std::fprintf(stderr, "hpcfail-store: ingest error: %s\n",
                 parsed.error->to_string().c_str());
    return 3;
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (const auto err = parsers::save_snapshot(parsed, out_path)) {
    std::fprintf(stderr, "hpcfail-store: %s\n", err->to_string().c_str());
    return 3;
  }
  const auto t1 = std::chrono::steady_clock::now();
  print_summary(parsed);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(out_path, ec);
  std::printf("snapshot        %s (%.1f MB, written in %.3f s)\n", out_path.c_str(),
              ec ? 0.0 : static_cast<double>(bytes) / 1e6,
              std::chrono::duration<double>(t1 - t0).count());
  return 0;
}

int run_load(const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto loaded = parsers::load_snapshot(path);
  const auto t1 = std::chrono::steady_clock::now();
  if (!loaded.ok()) {
    std::fprintf(stderr, "hpcfail-store: %s\n", loaded.error->to_string().c_str());
    return 3;
  }
  print_summary(loaded);
  std::printf("loaded in       %.3f s\n",
              std::chrono::duration<double>(t1 - t0).count());
  return 0;
}

int run_info(const std::string& path) {
  const auto read = util::read_snapshot(path);
  if (!read.ok()) {
    std::fprintf(stderr, "hpcfail-store: %s\n", read.error->to_string().c_str());
    return 3;
  }
  std::printf("format          hpcfail.store.v%u\n", read.snapshot->version());
  std::printf("file bytes      %llu\n",
              static_cast<unsigned long long>(read.snapshot->file_bytes()));
  std::printf("sections        %zu\n", read.snapshot->table().size());
  std::printf("%-24s %12s %12s %10s\n", "name", "offset", "length", "crc32");
  for (const auto& section : read.snapshot->table()) {
    std::printf("%-24s %12llu %12llu %10u\n", section.name.c_str(),
                static_cast<unsigned long long>(section.offset),
                static_cast<unsigned long long>(section.length), section.crc);
  }
  return 0;
}

int run_verify(const std::string& path) {
  // load_snapshot covers both layers: container validation (magic,
  // version, CRCs, table extents) and the full structural rebuild (CSR
  // invariants, symbol ids, column consistency).
  const auto loaded = parsers::load_snapshot(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "hpcfail-store: %s\n", loaded.error->to_string().c_str());
    return 3;
  }
  std::printf("%s: ok (%zu records, %zu jobs, system %s)\n", path.c_str(),
              loaded.store.size(), loaded.jobs.size(), loaded.system.label.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string_view command = argv[1];
  if (command == "--help" || command == "-h") {
    usage(stdout);
    return 0;
  }

  std::string dir;
  std::optional<platform::SystemName> preset;
  int days = 7;
  std::uint64_t seed = 42;
  std::size_t threads = 0;
  std::string out_path;
  std::string file;
  std::string fault_spec;

  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hpcfail-store: %s needs a value\n", argv[i]);
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
        std::fprintf(stderr, "hpcfail-store: %s expects an integer in [%llu, %llu], got '%s'\n",
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
        std::fputs("hpcfail-store: --preset expects S1..S5\n", stderr);
        return 2;
      }
    } else if (arg == "--days") {
      days = static_cast<int>(number(1, std::numeric_limits<int>::max()));
    } else if (arg == "--seed") {
      seed = number(0);
    } else if (arg == "--threads") {
      threads = static_cast<std::size_t>(number(0));
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--fault") {
      fault_spec = value();
    } else if (arg.rfind("--fault=", 0) == 0) {
      fault_spec = arg.substr(std::string_view("--fault=").size());
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "hpcfail-store: unknown option '%s'\n", argv[i]);
      usage(stderr);
      return 2;
    } else if (file.empty()) {
      file = arg;
    } else {
      std::fprintf(stderr, "hpcfail-store: unexpected argument '%s'\n", argv[i]);
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

  util::FaultInjector injector;
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("HPCFAIL_FAULT")) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    try {
      injector.arm_spec(fault_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hpcfail-store: %s\n", e.what());
      return 2;
    }
    util::install_fault_injector(&injector);
  }

  try {
    const int code = [&] {
      if (command == "save") {
        if (out_path.empty() || dir.empty() == !preset) {
          std::fputs(
              "hpcfail-store: save needs --out and exactly one of --dir / --preset\n",
              stderr);
          return 2;
        }
        return run_save(dir, preset, days, seed, threads, out_path);
      }
      if (file.empty()) {
        std::fprintf(stderr, "hpcfail-store: %s needs a snapshot file argument\n",
                     std::string(command).c_str());
        return 2;
      }
      if (command == "load") return run_load(file);
      if (command == "info") return run_info(file);
      if (command == "verify") return run_verify(file);
      std::fprintf(stderr, "hpcfail-store: unknown command '%s'\n",
                   std::string(command).c_str());
      usage(stderr);
      return 2;
    }();
    if (!fault_spec.empty()) {
      for (const auto& line : injector.summary()) {
        std::fprintf(stderr, "hpcfail-store: fault %s\n", line.c_str());
      }
    }
    if (code != 0) return code;
    // A clean run that never reached an armed site exercised nothing it
    // was asked to.
    const std::vector<std::string_view> unfired = injector.unfired();
    for (const std::string_view site : unfired) {
      std::fprintf(stderr, "hpcfail-store: armed fault site %.*s never fired\n",
                   static_cast<int>(site.size()), site.data());
    }
    return unfired.empty() ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpcfail-store: %s\n", e.what());
    return 1;
  }
}
