// Resident query daemon over the analysis engine.  Boots from an
// hpcfail.store.v1 snapshot, an on-disk corpus directory, or an in-memory
// simulated preset; optionally follows a live log tail; then answers
// line-delimited JSON requests (FORMATS.md "serve protocol") on stdin or a
// local unix-domain socket.  --client turns the same binary into the
// socket's client, so a scripted CI session needs no external tools.
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 structured
// boot error (snapshot/ingest).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "parsers/ingest.hpp"
#include "parsers/snapshot.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
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
      "usage: hpcfail-serve [--snapshot F | --dir D | --preset S1..S5] [options]\n"
      "       hpcfail-serve --client PATH\n"
      "\n"
      "Boots a resident query daemon over the analysis engine and answers\n"
      "line-delimited JSON requests (see FORMATS.md, \"serve protocol\").\n"
      "Responses carry the epoch they were computed against; attached tails\n"
      "are polled before each request, so a query always sees every log\n"
      "line that landed before it was asked.\n"
      "\n"
      "boot source (exactly one):\n"
      "  --snapshot F       load an hpcfail.store.v1 snapshot\n"
      "  --dir D            stream-ingest a corpus directory\n"
      "  --preset NAME      simulate system S1..S5 in memory\n"
      "  --days N           simulated days for --preset (default 7)\n"
      "  --seed N           simulation seed for --preset (default 42)\n"
      "\n"
      "serving:\n"
      "  --stdio            serve requests on stdin/stdout (default)\n"
      "  --socket PATH      serve on a unix-domain socket instead\n"
      "  --client PATH      connect to a serving socket and forward stdin\n"
      "  --tail FILE        follow FILE as a live log tail\n"
      "  --tail-source S    tail's source grammar: console, messages,\n"
      "                     consumer, controller, erd (default console)\n"
      "  --tail-replay      read the tail from byte 0 instead of only the\n"
      "                     lines appended after boot\n"
      "  --window-days N    sliding analysis window (default 30)\n"
      "  --threads N        pool threads for analysis + request handling\n"
      "                     (default and 0: hardware concurrency)\n"
      "\n"
      "observability:\n"
      "  --metrics-out F    write hpcfail.metrics.v1 JSON to F on exit\n"
      "  --trace-out F      write spans to F (chrome://tracing JSON)\n"
      "  --fault SPEC       arm deterministic fault sites for repro:\n"
      "                     <site>[:<n>][,...] (also via HPCFAIL_FAULT env;\n"
      "                     --fault list prints the site inventory)\n"
      "\n"
      "--metrics-out, --trace-out and --fault also accept --opt=VALUE form.\n"
      "A boot that ends in a structured snapshot/ingest error exits 3; a\n"
      "clean session whose armed fault site never fired exits 2.\n",
      to);
}

std::optional<logmodel::LogSource> tail_source_of(std::string_view name) {
  if (name == "console") return logmodel::LogSource::Console;
  if (name == "messages") return logmodel::LogSource::Messages;
  if (name == "consumer") return logmodel::LogSource::Consumer;
  if (name == "controller") return logmodel::LogSource::Controller;
  if (name == "erd") return logmodel::LogSource::Erd;
  return std::nullopt;  // scheduler deliberately absent: not tailable
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::string dir;
  std::optional<platform::SystemName> preset;
  int days = 7;
  std::uint64_t seed = 42;
  std::string socket_path;
  std::string client_path;
  std::string tail_path;
  logmodel::LogSource tail_source = logmodel::LogSource::Console;
  bool tail_replay = false;
  int window_days = 30;
  std::size_t threads = 0;
  std::string metrics_path;
  std::string trace_path;
  std::string fault_spec;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hpcfail-serve: %s needs a value\n", argv[i]);
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
        std::fprintf(stderr, "hpcfail-serve: %s expects an integer in [%llu, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text);
        std::exit(2);
      }
      return *n;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--snapshot") {
      snapshot_path = value();
    } else if (arg == "--dir") {
      dir = value();
    } else if (arg == "--preset") {
      preset = platform::system_from_string(value());
      if (!preset) {
        std::fputs("hpcfail-serve: --preset expects S1..S5\n", stderr);
        return 2;
      }
    } else if (arg == "--days") {
      days = static_cast<int>(number(1, std::numeric_limits<int>::max()));
    } else if (arg == "--seed") {
      seed = number(0);
    } else if (arg == "--stdio") {
      // the default; accepted for explicit scripts
    } else if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--client") {
      client_path = value();
    } else if (arg == "--tail") {
      tail_path = value();
    } else if (arg == "--tail-source") {
      const auto source = tail_source_of(value());
      if (!source) {
        std::fputs(
            "hpcfail-serve: --tail-source expects console, messages, "
            "consumer, controller or erd\n",
            stderr);
        return 2;
      }
      tail_source = *source;
    } else if (arg == "--tail-replay") {
      tail_replay = true;
    } else if (arg == "--window-days") {
      window_days = static_cast<int>(number(1, std::numeric_limits<int>::max()));
    } else if (arg == "--threads") {
      threads = static_cast<std::size_t>(number(0));
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
      std::fprintf(stderr, "hpcfail-serve: unknown option '%s'\n", argv[i]);
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

  // Client mode: no boot, just a line pump against a running daemon.
  if (!client_path.empty()) {
    if (!snapshot_path.empty() || !dir.empty() || preset || !socket_path.empty()) {
      std::fputs("hpcfail-serve: --client excludes boot and --socket options\n",
                 stderr);
      return 2;
    }
    return serve::run_socket_client(client_path, std::cin, std::cout) ? 0 : 1;
  }

  const int boot_sources = static_cast<int>(!snapshot_path.empty()) +
                           static_cast<int>(!dir.empty()) +
                           static_cast<int>(preset.has_value());
  if (boot_sources != 1) {
    std::fputs(
        "hpcfail-serve: pass exactly one of --snapshot, --dir or --preset\n",
        stderr);
    usage(stderr);
    return 2;
  }

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
      std::fprintf(stderr, "hpcfail-serve: %s\n", e.what());
      return 2;
    }
    util::install_fault_injector(&injector);
  }

  try {
    util::ThreadPool pool(threads);

    // Boot: all three sources land in the same ParsedCorpus shape, which
    // is what makes snapshot-boot vs text-boot byte-identity testable.
    parsers::ParsedCorpus corpus;
    if (!snapshot_path.empty()) {
      auto loaded = parsers::load_snapshot(snapshot_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "hpcfail-serve: snapshot error: %s\n",
                     loaded.error->to_string().c_str());
        return 3;
      }
      corpus = std::move(loaded);
    } else if (!dir.empty()) {
      parsers::IngestOptions options;
      options.pool = &pool;
      auto ingested = parsers::ingest_files(dir, options);
      if (!ingested.ok()) {
        std::fprintf(stderr, "hpcfail-serve: ingest error: %s\n",
                     ingested.error->to_string().c_str());
        return 3;
      }
      corpus = std::move(ingested);
    } else {
      const auto sim =
          faultsim::Simulator(faultsim::scenario_preset(*preset, days, seed)).run();
      corpus = parsers::parse_corpus(loggen::build_corpus(sim), &pool);
    }

    serve::ServerConfig config;
    config.window = util::Duration::days(window_days);
    config.pool = &pool;
    serve::Server server(std::move(corpus), config);

    if (!tail_path.empty()) {
      std::uint64_t offset = 0;
      if (!tail_replay) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(tail_path, ec);
        if (!ec) offset = size;
      }
      server.attach_tail(tail_path, tail_source, offset);
    }

    // The banner goes to stderr: stdout is the protocol surface.
    std::fprintf(stderr,
                 "hpcfail-serve: %s ready (epoch 0, %zu boot alerts, window %d d%s)\n",
                 std::string(server.system_label()).c_str(),
                 server.boot_alerts().size(), window_days,
                 tail_path.empty() ? "" : ", tailing");

    serve::SessionOptions options;
    options.pool = pool.size() > 1 ? &pool : nullptr;
    options.poll_tail_each_request = !tail_path.empty();

    bool clean = true;
    if (!socket_path.empty()) {
      clean = serve::run_socket_server(server, socket_path, options);
    } else {
      (void)serve::run_session(server, std::cin, std::cout, options);
    }

    if (!metrics_path.empty()) {
      std::ofstream(metrics_path) << registry.to_json() << '\n';
    }
    if (!trace_path.empty()) {
      std::ofstream(trace_path) << recorder.to_chrome_json() << '\n';
    }
    if (!fault_spec.empty()) {
      for (const auto& line : injector.summary()) {
        std::fprintf(stderr, "hpcfail-serve: fault %s\n", line.c_str());
      }
    }
    if (!clean) return 1;
    // A clean run that never reached an armed site exercised nothing it
    // was asked to.
    const std::vector<std::string_view> unfired = injector.unfired();
    for (const std::string_view site : unfired) {
      std::fprintf(stderr, "hpcfail-serve: armed fault site %.*s never fired\n",
                   static_cast<int>(site.size()), site.data());
    }
    return unfired.empty() ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpcfail-serve: %s\n", e.what());
    return 1;
  }
}
