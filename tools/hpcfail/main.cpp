// hpcfail: the operator command over the pipeline.  `ingest` streams a
// corpus directory and reports throughput, `store` saves, loads, inspects
// and verifies hpcfail.store.v1 snapshots, and `serve` answers
// line-delimited JSON queries (FORMATS.md "serve protocol") on stdin or a
// unix-domain socket.  The subcommands share one option parser, one fault
// and sink setup, and one corpus source (--snapshot, --dir or --preset).
// Exit codes: 0 success, 1 runtime failure, 2 usage error (or a clean run
// whose armed fault site never fired), 3 structured snapshot or ingest
// error.
#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "parsers/snapshot.hpp"
#include "platform/system_config.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using namespace hpcfail;

constexpr const char* kUsage =
    "usage: hpcfail ingest      (--dir D | --preset S [--days N] [--seed N] [--keep])\n"
    "       hpcfail store save  --out F (--dir D | --preset S [--days N] [--seed N])\n"
    "       hpcfail store load|info|verify F\n"
    "       hpcfail serve       (--snapshot F | --dir D | --preset S [--days N] [--seed N])\n"
    "                           [--socket P] [--tail F [--tail-source S] [--tail-replay]]\n"
    "                           [--window-days N]\n"
    "       hpcfail serve       --client P\n"
    "every subcommand also takes [--threads N] [--fault SPEC | --fault list]\n"
    "                            [--metrics-out F] [--trace-out F]\n"
    "\n"
    "  ingest          stream a corpus through the chunked, bounded-memory\n"
    "                  ingest path; print throughput and peak-RSS figures\n"
    "  store save      ingest a corpus and write it as an hpcfail.store.v1\n"
    "                  snapshot (FORMATS.md)\n"
    "  store load      load a snapshot and print its summary\n"
    "  store info      validate the container and print the section table\n"
    "  store verify    container validation plus a full structural rebuild\n"
    "  serve           boot a query daemon and answer line-delimited JSON\n"
    "                  requests (FORMATS.md, \"serve protocol\"); attached\n"
    "                  tails are polled before each request\n"
    "\n"
    "corpus source (exactly one):\n"
    "  --snapshot F    load an hpcfail.store.v1 snapshot (serve)\n"
    "  --dir D         stream-ingest a corpus directory\n"
    "  --preset NAME   simulate system S1..S5; ingest writes the corpus to a\n"
    "                  fresh temp directory and streams it back, store and\n"
    "                  serve parse it in memory\n"
    "  --days N        simulated days for --preset (default 7)\n"
    "  --seed N        simulation seed for --preset (default 42)\n"
    "  --keep          keep ingest's --preset temp directory\n"
    "  --out F         snapshot file to write (store save)\n"
    "\n"
    "serve:\n"
    "  --socket P      serve on a unix-domain socket instead of stdin/stdout\n"
    "  --client P      connect to a serving socket and forward stdin\n"
    "  --tail F        follow F as a live log tail\n"
    "  --tail-source S tail's grammar: console, messages, consumer,\n"
    "                  controller, erd (default console)\n"
    "  --tail-replay   read the tail from byte 0, not only the lines\n"
    "                  appended after boot\n"
    "  --window-days N sliding analysis window (default 30)\n"
    "\n"
    "every subcommand:\n"
    "  --threads N     pool threads (default and 0: hardware concurrency)\n"
    "  --fault SPEC    arm deterministic fault sites: <site>[:<n>][,...]\n"
    "                  fires the n-th hit of each site (also via the\n"
    "                  HPCFAIL_FAULT env; --fault list prints the sites)\n"
    "  --metrics-out F write hpcfail.metrics.v1 JSON to F at exit\n"
    "  --trace-out F   write spans to F (chrome://tracing JSON)\n"
    "\n"
    "Every value flag also takes the --flag=VALUE form.  The fault summary\n"
    "goes to stderr.  A structured snapshot or ingest error exits 3;\n"
    "otherwise a run whose armed fault site never fired exits 2.\n";

/// A bad command line: printed after the diagnostics prefix, exit 2,
/// before anything is simulated.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The subcommands, as mask bits, so each flag names the ones that take it.
enum Sub : unsigned {
  kIngest = 1,
  kSave = 2,
  kInspect = 4,  ///< store load|info|verify
  kServe = 8,
};
constexpr unsigned kEvery = kIngest | kSave | kInspect | kServe;

struct Options {
  std::string command;  ///< ingest, store or serve; names the diagnostics
  Sub sub = kIngest;
  std::string verb;  ///< the store verb
  std::string file;  ///< store load|info|verify
  bool help = false;
  // Corpus source.
  std::string snapshot;
  std::string dir;
  std::optional<platform::SystemName> preset;
  int days = 7;
  std::uint64_t seed = 42;
  bool keep = false;
  std::string out;
  // Serve.
  std::string socket;
  std::string client;
  std::string tail;
  logmodel::LogSource tail_source = logmodel::LogSource::Console;
  bool tail_replay = false;
  int window_days = 30;
  // Every subcommand.
  std::size_t threads = 0;
  std::string fault;
  std::string metrics_out;
  std::string trace_out;
};

std::optional<logmodel::LogSource> tail_source_of(std::string_view name) {
  if (name == "console") return logmodel::LogSource::Console;
  if (name == "messages") return logmodel::LogSource::Messages;
  if (name == "consumer") return logmodel::LogSource::Consumer;
  if (name == "controller") return logmodel::LogSource::Controller;
  if (name == "erd") return logmodel::LogSource::Erd;
  return std::nullopt;  // scheduler deliberately absent: not tailable
}

void parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      o.help = true;
      return;
    }
  }
  const std::string_view command = argc > 1 ? argv[1] : "";
  if (command != "ingest" && command != "store" && command != "serve") {
    throw UsageError("expects a subcommand: ingest, store or serve (see --help)");
  }
  o.command = command;
  int first = 2;
  if (command == "serve") o.sub = kServe;
  if (command == "store") {
    o.verb = argc > 2 ? argv[2] : "";
    first = 3;
    if (o.verb == "save") {
      o.sub = kSave;
    } else if (o.verb == "load" || o.verb == "info" || o.verb == "verify") {
      o.sub = kInspect;
    } else {
      throw UsageError("expects save, load, info or verify");
    }
  }

  constexpr auto kIntMax = static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr unsigned kSource = kIngest | kSave | kServe;
  for (int i = first; i < argc; ++i) {
    // Split --flag=VALUE once, so every value flag takes both spellings.
    std::string_view flag = argv[i];
    std::optional<std::string_view> inline_value;
    if (const auto eq = flag.find('='); flag.starts_with("--") && eq != std::string_view::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    const auto is = [&](std::string_view name, unsigned subs) {
      return flag == name && (o.sub & subs) != 0;
    };
    const auto value = [&]() -> std::string {
      if (inline_value) return std::string(*inline_value);
      if (i + 1 >= argc) throw UsageError(std::string(flag) + " needs a value");
      return argv[++i];
    };
    const auto toggle = [&] {
      if (inline_value) throw UsageError(std::string(flag) + " takes no value");
      return true;
    };
    // The one number reader: strict, and a value outside [min, max] is a
    // usage error reported before anything runs.
    const auto number = [&](std::uint64_t min, std::uint64_t max) {
      const std::string text = value();
      const auto n = util::parse_u64(text);
      if (!n || *n < min || *n > max) {
        throw UsageError(std::string(flag) + " expects an integer in [" + std::to_string(min) +
                         ", " + std::to_string(max) + "], got '" + text + "'");
      }
      return *n;
    };
    if (is("--snapshot", kServe)) {
      o.snapshot = value();
    } else if (is("--dir", kSource)) {
      o.dir = value();
    } else if (is("--preset", kSource)) {
      o.preset = platform::system_from_string(value());
      if (!o.preset) throw UsageError("--preset expects S1..S5");
    } else if (is("--days", kSource)) {
      o.days = static_cast<int>(number(1, kIntMax));
    } else if (is("--seed", kSource)) {
      o.seed = number(0, kU64Max);
    } else if (is("--keep", kIngest)) {
      o.keep = toggle();
    } else if (is("--out", kSave)) {
      o.out = value();
    } else if (is("--socket", kServe)) {
      o.socket = value();
    } else if (is("--client", kServe)) {
      o.client = value();
    } else if (is("--tail", kServe)) {
      o.tail = value();
    } else if (is("--tail-source", kServe)) {
      const auto source = tail_source_of(value());
      if (!source) {
        throw UsageError("--tail-source expects console, messages, consumer, controller or erd");
      }
      o.tail_source = *source;
    } else if (is("--tail-replay", kServe)) {
      o.tail_replay = toggle();
    } else if (is("--window-days", kServe)) {
      o.window_days = static_cast<int>(number(1, kIntMax));
    } else if (is("--threads", kEvery)) {
      o.threads = static_cast<std::size_t>(number(0, kU64Max));
    } else if (is("--fault", kEvery)) {
      o.fault = value();
    } else if (is("--metrics-out", kEvery)) {
      o.metrics_out = value();
    } else if (is("--trace-out", kEvery)) {
      o.trace_out = value();
    } else if (o.sub == kInspect && o.file.empty() && !flag.starts_with("-")) {
      o.file = argv[i];
    } else {
      throw UsageError("unknown " + o.command + (o.verb.empty() ? "" : " " + o.verb) +
                       " option '" + argv[i] + "'");
    }
  }
}

/// Cross-flag rules the parse loop cannot see one flag at a time.
void check(const Options& o) {
  const int sources = static_cast<int>(!o.snapshot.empty()) + static_cast<int>(!o.dir.empty()) +
                      static_cast<int>(o.preset.has_value());
  switch (o.sub) {
    case kInspect:
      if (o.file.empty()) throw UsageError(o.verb + " needs a snapshot file argument");
      return;
    case kSave:
      if (o.out.empty()) throw UsageError("save needs --out");
      [[fallthrough]];
    case kIngest:
      if (sources != 1) throw UsageError("pass exactly one of --dir or --preset");
      return;
    case kServe:
      if (!o.client.empty()) {
        if (sources != 0 || !o.socket.empty()) {
          throw UsageError("--client excludes corpus source and --socket options");
        }
      } else if (sources != 1) {
        throw UsageError("pass exactly one of --snapshot, --dir or --preset");
      }
      return;
  }
}

/// One diagnostic line on stderr, prefixed "hpcfail <subcommand>:".
void say(const Options& o, const std::string& message) {
  std::fprintf(stderr, "hpcfail%s%s: %s\n", o.command.empty() ? "" : " ", o.command.c_str(),
               message.c_str());
}

/// The shared fault and sink setup.  It lives in main's frame, so the
/// sinks outlive every pool; the sink files are opened before anything
/// runs, so an unwritable path is a usage error rather than a lost run.
class Harness {
 public:
  Harness() = default;
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  ~Harness() {
    util::install_fault_injector(nullptr);
    util::install_metrics(nullptr);
    util::install_trace(nullptr);
  }

  void install(const Options& o) {
    std::string spec = o.fault;
    if (spec.empty()) {
      if (const char* env = std::getenv("HPCFAIL_FAULT")) spec = env;
    }
    if (!spec.empty()) {
      try {
        injector_.arm_spec(spec);
      } catch (const std::exception& e) {
        throw UsageError(e.what());
      }
      util::install_fault_injector(&injector_);
    }
    if (open(metrics_, o.metrics_out)) util::install_metrics(&registry_);
    if (open(trace_, o.trace_out)) util::install_trace(&recorder_);
  }

  /// Writes the sink files and the fault summary.  A sink write that
  /// fails turns a clean run into exit 1; an armed site that never fired
  /// turns it into exit 2.  A failed run keeps its own code.
  int finish(const Options& o, int code) {
    const auto write = [&](std::ofstream& out, const std::string& text, const std::string& path) {
      if (!out.is_open()) return;
      out << text << '\n';
      out.close();
      if (!out) {
        say(o, "cannot write " + path);
        if (code == 0) code = 1;
      }
    };
    write(metrics_, registry_.to_json(), o.metrics_out);
    write(trace_, recorder_.to_chrome_json(), o.trace_out);
    for (const auto& line : injector_.summary()) say(o, "fault " + line);
    if (code != 0) return code;
    for (const std::string_view site : injector_.unfired()) {
      say(o, "armed fault site " + std::string(site) + " never fired");
      code = 2;
    }
    return code;
  }

 private:
  static bool open(std::ofstream& out, const std::string& path) {
    if (path.empty()) return false;
    out.open(path);
    if (!out) throw UsageError("cannot open " + path + " for writing");
    return true;
  }

  util::MetricsRegistry registry_;
  util::TraceRecorder recorder_;
  util::FaultInjector injector_;
  std::ofstream metrics_;
  std::ofstream trace_;
};

/// What every corpus source yields: the corpus, or the structured error
/// that stopped it.  An ingest error leaves the record-accurate partial
/// corpus; a snapshot error leaves it empty.
struct LoadedCorpus : parsers::ParsedCorpus {
  std::string error;  ///< "ingest error: ..." or "snapshot error: ..."; empty when clean
};

loggen::Corpus simulate(const Options& o) {
  return loggen::build_corpus(
      faultsim::Simulator(faultsim::scenario_preset(*o.preset, o.days, o.seed)).run());
}

void announce_simulation(const Options& o) {
  std::printf("simulating %d day(s), seed %llu ...\n", o.days,
              static_cast<unsigned long long>(o.seed));
}

/// The one corpus source: --snapshot loads, --dir streams the files and
/// --preset simulates and parses in memory.  Prints nothing: serve's
/// stdout is the protocol surface.
LoadedCorpus load_corpus(const Options& o, util::ThreadPool& pool) {
  LoadedCorpus out;
  const auto take = [&out](auto result, const char* what) {
    if (result.error) out.error = what + result.error->to_string();
    static_cast<parsers::ParsedCorpus&>(out) = std::move(result);
  };
  parsers::IngestOptions options;
  options.pool = &pool;
  if (!o.snapshot.empty()) {
    take(parsers::load_snapshot(o.snapshot), "snapshot error: ");
  } else if (!o.dir.empty()) {
    take(parsers::ingest_files(o.dir, options), "ingest error: ");
  } else {
    take(parsers::ingest_corpus(simulate(o), options), "ingest error: ");
  }
  return out;
}

/// A fresh directory for a --preset corpus, one per run, so concurrent
/// runs never share one; removed on exit unless --keep.
class ScratchDir {
 public:
  explicit ScratchDir(bool keep)
      : path_((std::filesystem::temp_directory_path() / "hpcfail_ingest_XXXXXX").string()),
        keep_(keep) {
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(), "mkdtemp " + path_);
    }
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ec;
    if (!keep_) std::filesystem::remove_all(path_, ec);
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  bool keep_;
};

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

/// Streams --dir (or a --preset written to a scratch directory: streaming
/// files from disk is what ingest measures) and reports throughput.
int run_ingest(Options o) {
  std::optional<ScratchDir> scratch;
  if (o.preset) {
    announce_simulation(o);
    scratch.emplace(o.keep);
    loggen::write_corpus(simulate(o), scratch->path());
    o.dir = scratch->path();
    o.preset.reset();
  }

  const std::size_t bytes = dir_log_bytes(o.dir);
  util::ThreadPool pool(o.threads);
  const auto t0 = std::chrono::steady_clock::now();
  const LoadedCorpus parsed = load_corpus(o, pool);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  std::printf("corpus dir      %s\n", o.dir.c_str());
  std::printf("system          %s\n", parsed.system.label.c_str());
  std::printf("log bytes       %.1f MB\n", static_cast<double>(bytes) / 1e6);
  std::printf("lines           %zu (%zu skipped)\n", parsed.total_lines, parsed.skipped_lines);
  std::printf("records         %zu\n", parsed.parsed_records);
  std::printf("jobs            %zu\n", parsed.jobs.size());
  std::printf("threads         %zu\n", pool.size());
  std::printf("elapsed         %.3f s\n", seconds);
  std::printf("throughput      %.1f MB/s, %.0f records/s\n",
              static_cast<double>(bytes) / 1e6 / seconds,
              static_cast<double>(parsed.parsed_records) / seconds);
  std::printf("peak rss        %.1f MB\n", peak_rss_mb());
  if (!o.metrics_out.empty()) std::printf("metrics         %s\n", o.metrics_out.c_str());
  if (!o.trace_out.empty()) std::printf("trace           %s\n", o.trace_out.c_str());
  if (parsed.error.empty()) return 0;
  say(o, parsed.error);
  say(o, "partial result above covers " + std::to_string(parsed.parsed_records) +
             " records (" + std::to_string(parsed.total_lines) + " lines seen, " +
             std::to_string(parsed.skipped_lines) + " skipped)");
  return 3;
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

int run_store_save(const Options& o) {
  if (o.preset) announce_simulation(o);
  util::ThreadPool pool(o.threads);
  const LoadedCorpus parsed = load_corpus(o, pool);
  if (!parsed.error.empty()) {
    say(o, parsed.error);
    return 3;
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (const auto err = parsers::save_snapshot(parsed, o.out)) {
    say(o, err->to_string());
    return 3;
  }
  const auto t1 = std::chrono::steady_clock::now();
  print_summary(parsed);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(o.out, ec);
  std::printf("snapshot        %s (%.1f MB, written in %.3f s)\n", o.out.c_str(),
              ec ? 0.0 : static_cast<double>(bytes) / 1e6,
              std::chrono::duration<double>(t1 - t0).count());
  return 0;
}

int run_store_inspect(const Options& o) {
  if (o.verb == "info") {
    const auto read = util::read_snapshot(o.file);
    if (!read.ok()) {
      say(o, read.error->to_string());
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
  // load and verify: load_snapshot covers both layers, container
  // validation (magic, version, CRCs, table extents) and the full
  // structural rebuild (CSR invariants, symbol ids, column consistency).
  const auto t0 = std::chrono::steady_clock::now();
  const auto loaded = parsers::load_snapshot(o.file);
  const auto t1 = std::chrono::steady_clock::now();
  if (!loaded.ok()) {
    say(o, loaded.error->to_string());
    return 3;
  }
  if (o.verb == "verify") {
    std::printf("%s: ok (%zu records, %zu jobs, system %s)\n", o.file.c_str(),
                loaded.store.size(), loaded.jobs.size(), loaded.system.label.c_str());
    return 0;
  }
  print_summary(loaded);
  std::printf("loaded in       %.3f s\n", std::chrono::duration<double>(t1 - t0).count());
  return 0;
}

int run_serve(const Options& o) {
  // Client mode: no boot, just a line pump against a running daemon.
  if (!o.client.empty()) return serve::run_socket_client(o.client, std::cin, std::cout) ? 0 : 1;

  util::ThreadPool pool(o.threads);
  LoadedCorpus corpus = load_corpus(o, pool);
  if (!corpus.error.empty()) {
    say(o, corpus.error);
    return 3;
  }
  serve::ServerConfig config;
  config.window = util::Duration::days(o.window_days);
  config.pool = &pool;
  serve::Server server(std::move(corpus), config);

  if (!o.tail.empty()) {
    std::uint64_t offset = 0;
    if (!o.tail_replay) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(o.tail, ec);
      if (!ec) offset = size;
    }
    server.attach_tail(o.tail, o.tail_source, offset);
  }

  // The banner goes to stderr: stdout is the protocol surface.
  say(o, std::string(server.system_label()) + " ready (epoch 0, " +
             std::to_string(server.boot_alerts().size()) + " boot alerts, window " +
             std::to_string(o.window_days) + " d" + (o.tail.empty() ? "" : ", tailing") + ")");

  serve::SessionOptions options;
  options.poll_tail_each_request = !o.tail.empty();
  if (!o.socket.empty()) return serve::run_socket_server(server, o.socket, options) ? 0 : 1;
  (void)serve::run_session(server, std::cin, std::cout, options);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  Harness harness;
  try {
    parse(argc, argv, o);
    if (o.help) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (o.fault == "list") {
      for (const auto site : util::kFaultSites) {
        std::printf("%.*s\n", static_cast<int>(site.size()), site.data());
      }
      return 0;
    }
    check(o);
    harness.install(o);
  } catch (const UsageError& e) {
    say(o, e.what());
    return 2;
  }

  int code = 1;
  try {
    switch (o.sub) {
      case kIngest: code = run_ingest(o); break;
      case kSave: code = run_store_save(o); break;
      case kInspect: code = run_store_inspect(o); break;
      case kServe: code = run_serve(o); break;
    }
  } catch (const std::exception& e) {
    say(o, e.what());
    code = 1;
  }
  return harness.finish(o, code);
}
