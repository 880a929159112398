#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "faultsim/simulator.hpp"
#include "ledger.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "parsers/snapshot.hpp"
#include "platform/topology.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace {

namespace core = hpcfail::core;
namespace loggen = hpcfail::loggen;
namespace parsers = hpcfail::parsers;
namespace serve = hpcfail::serve;
namespace util = hpcfail::util;
using hpcfail::logmodel::LogSource;

/// Serve set-up repetitions per run; setup_s is their median.
constexpr int kServeSetupReps = 5;

/// dashboard: closed-loop clients, every kSampleEvery-th request timed into
/// the latency sample, and the request cap per client in the traced half
/// (it bounds the trace's memory).
constexpr int kDashboardClients = 2;
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::uint64_t kTracedRequestsPerClient = 100000;
constexpr double kWindowSeconds = 1.0;

/// Mismatch lines kept verbatim; the rest are only counted.
constexpr std::size_t kMaxProblems = 20;

// ------------------------------------------------------------ metric sets --

/// Every per-layer metric, in BENCHMARK.json order.  A traced run prints all
/// of them; a layer the workload never enters reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"faultsim.self_ms", "ms"},
    {"faultsim.simulate_ms", "ms"},
    {"faultsim.workload_ms", "ms"},
    {"faultsim.failures_ms", "ms"},
    {"faultsim.benign_ms", "ms"},
    {"faultsim.records", "count"},
    {"loggen.self_ms", "ms"},
    {"loggen.render_ms", "ms"},
    {"loggen.bytes", "bytes"},
    {"loggen.render_mb_per_s", "MB/s"},
    {"parsers.self_ms", "ms"},
    {"parsers.ingest_ms", "ms"},
    {"parsers.ingest_mb_per_s", "MB/s"},
    {"parsers.parse_corpus_ms", "ms"},
    {"parsers.parse_overlap", "ratio"},
    {"parsers.source_console_ms", "ms"},
    {"parsers.source_messages_ms", "ms"},
    {"parsers.source_consumer_ms", "ms"},
    {"parsers.source_controller_ms", "ms"},
    {"parsers.source_erd_ms", "ms"},
    {"parsers.source_scheduler_ms", "ms"},
    {"parsers.lines_total", "count"},
    {"parsers.lines_skipped", "count"},
    {"parsers.records", "count"},
    {"logmodel.self_ms", "ms"},
    {"logmodel.sort_shards_ms", "ms"},
    {"logmodel.symbols", "count"},
    {"jobs.self_ms", "ms"},
    {"jobs.count", "count"},
    {"snapshot.self_ms", "ms"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"core.self_ms", "ms"},
    {"core.analyze_ms", "ms"},
    {"core.report_ms", "ms"},
    {"core.analyzer_cause_aggregates_ms", "ms"},
    {"core.analyzer_lead_times_ms", "ms"},
    {"core.analyzer_external_correlation_ms", "ms"},
    {"core.analyzer_benign_faults_ms", "ms"},
    {"core.analyzer_clusters_ms", "ms"},
    {"core.failures", "count"},
    {"core.monitor_alerts", "count"},
    {"serve.self_ms", "ms"},
    {"serve.boot_ms", "ms"},
    {"serve.poll_p50_ms", "ms"},
    {"serve.poll_p99_ms", "ms"},
    {"serve.poll_empty_us", "us"},
    {"serve.tail_lines", "count"},
    {"serve.tail_records", "count"},
    {"serve.epochs", "count"},
    {"serve.recomputes", "count"},
    {"serve.recompute_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.fresh_p50_ms", "ms"},
    {"serve.fresh_p99_ms", "ms"},
    {"serve.verb_status_us", "us"},
    {"serve.verb_ping_us", "us"},
    {"serve.verb_causes_us", "us"},
    {"serve.verb_lead_time_us", "us"},
    {"serve.verb_node_health_us", "us"},
    {"serve.verb_report_us", "us"},
    {"serve.verb_metrics_us", "us"},
    {"bench.unaccounted_ms", "ms"},
    {"bench.late_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
};

class LayerMetrics {
 public:
  void set(const std::string& name, double value) {
    for (const auto& [known, unit] : kLayerMetrics) {
      if (name == known) {
        values_[name] = value;
        return;
      }
    }
    throw std::logic_error("perfbench: unlisted per-layer metric " + name);
  }
  [[nodiscard]] std::vector<Metric> rows() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Shared bookkeeping of one workload run.
struct Run {
  const Options& opt;
  Outcome out;
  LayerMetrics layer;
  Samples setup_s;
  std::optional<LedgerTotals> ledger;

  explicit Run(const Options& o) : opt(o) {}

  void problem(const std::string& what) {
    ++out.failed;
    if (out.problems.size() < kMaxProblems) out.problems.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    ++out.attempted;
    if (!ok) problem(what);
  }

  /// The end-to-end set every workload reports.  The tail goes to the
  /// notes with its percentile and sample count: on a shared host it moves
  /// too much between runs to gate on.
  void end_to_end(const Samples& op_ms, double ops_per_s, double peak_rss) {
    out.end_to_end = {
        {"setup_s", setup_s.median(), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"op_p50_ms", op_ms.median(), "ms"},
        {"ops_per_s", ops_per_s, "1/s"},
    };
    double pct = 0.0;
    const double tail = op_ms.tail(pct);
    detail("op_tail_ms", tail, "ms");
    detail("op_tail_percentile", pct, "pct");
    detail("op_samples", static_cast<double>(op_ms.size()), "count");
  }
  void detail(std::string name, double value, std::string unit) {
    out.detail.push_back({std::move(name), value, std::move(unit)});
  }

  /// Span time per operation of the traced half.
  [[nodiscard]] double per_op(const std::string& span) const {
    if (!ledger || ledger->ops == 0) return 0.0;
    const auto it = ledger->span_ms.find(span);
    return it == ledger->span_ms.end() ? 0.0
                                       : it->second / static_cast<double>(ledger->ops);
  }

  /// Ledger rows, the unaccounted remainder and the tracing overhead.
  void finish_layers(double overhead) {
    if (!ledger) return;
    const double ops = static_cast<double>(std::max<std::uint64_t>(1, ledger->ops));
    for (const auto& [name, self_ms] : ledger->self_ms) layer.set(name + ".self_ms", self_ms / ops);
    layer.set("bench.unaccounted_ms", ledger->unaccounted_ms / ops);
    layer.set("bench.trace_overhead", overhead);
    for (const std::string analyzer :
         {"cause_aggregates", "lead_times", "external_correlation", "benign_faults",
          "clusters"}) {
      layer.set("core.analyzer_" + analyzer + "_ms",
                per_op("hpcfail.engine.analyzer_" + analyzer));
    }
    out.per_layer = layer.rows();
  }
};

/// Installs a TraceRecorder for the traced half of a run.
class Tracing {
 public:
  Tracing() = default;
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;
  ~Tracing() { util::install_trace(nullptr); }

  void start() {
    recorder_ = std::make_unique<util::TraceRecorder>();
    util::install_trace(recorder_.get());
  }
  /// Call only once no span is live on any thread.
  [[nodiscard]] LedgerTotals stop() {
    util::install_trace(nullptr);
    return aggregate(*recorder_);
  }

 private:
  std::unique_ptr<util::TraceRecorder> recorder_;
};

/// Runs `fn` inside a benchmark span; the span closes after the result is
/// constructed.
template <typename F>
auto timed(std::string_view name, std::uint64_t id, F&& fn) {
  const Span span(name, id);
  return fn();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Waits until `due`: sleeps to just before it, then spins, so the open-loop
/// generators are not late by the scheduler's wake-up delay.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (Clock::now() + kSpin < due) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

/// Batch runs: ops until `seconds` pass (at least one), each preceded by a
/// timed `setup` into run.setup_s.  Sampling set-up next to every op spreads
/// it over the run like the ops: timed back to back at the start, its
/// median moved by a third between runs on a shared host.  A traced run
/// measures the first half untraced, then the second half traced; the
/// returned samples are the untraced ones, `traced` gets the rest.
template <typename Setup, typename Op>
Samples run_batch(Run& run, Setup&& setup, Op&& op, Samples& traced) {
  Samples untraced;
  std::uint64_t id = 0;
  const auto loop = [&](Clock::time_point deadline, Samples& into) {
    do {
      const auto s0 = Clock::now();
      setup();
      const auto t0 = Clock::now();
      run.setup_s.add(seconds_between(s0, t0));
      op(id++);
      into.add(ms_between(t0, Clock::now()));
    } while (Clock::now() < deadline);
  };
  const auto start = Clock::now();
  if (!run.opt.trace) {
    loop(start + to_duration(run.opt.seconds), untraced);
    return untraced;
  }
  loop(start + to_duration(run.opt.seconds / 2), untraced);
  Tracing tracing;
  tracing.start();
  loop(start + to_duration(run.opt.seconds), traced);
  run.ledger = tracing.stop();
  return untraced;
}

double overhead_of(const Samples& traced, const Samples& untraced) {
  return untraced.mean() > 0.0 ? traced.mean() / untraced.mean() : 0.0;
}

// ------------------------------------------------------------- postmortem --

Outcome postmortem(const Options& opt) {
  Run run(opt);
  const auto specs = postmortem_corpora(opt.tiny);
  const auto expected = read_expected(opt);
  std::vector<std::string> dirs;
  std::vector<std::string> snaps;
  std::uint64_t log_bytes = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    dirs.push_back(corpus_dir(opt, i));
    snaps.push_back(opt.dir + "/postmortem" + std::to_string(i) + ".snap");
    log_bytes += corpus_log_bytes(dirs.back());
  }

  util::ThreadPool pool;
  core::AnalysisConfig config;
  config.pool = &pool;
  const core::AnalysisEngine engine(config);
  // Set-up: what runs before the first log byte is read — an engine, the
  // manifests and the topologies they describe.  Thread start-up is left
  // out: its cost swung by 2x between runs on a shared host.
  const auto setup = [&] {
    const core::AnalysisEngine fresh(config);
    for (const std::string& dir : dirs) {
      const hpcfail::platform::Topology topology(
          loggen::read_corpus_header(dir).system.topology);
    }
  };
  parsers::IngestOptions ingest_options;
  ingest_options.pool = &pool;

  struct Counts {
    std::size_t lines = 0, skipped = 0, records = 0, symbols = 0, jobs = 0, failures = 0;
  };
  Counts counts;
  const auto op = [&](std::uint64_t id) {
    const Span root("op", id);
    Counts c;
    for (std::size_t k = 0; k < dirs.size(); ++k) {
      const parsers::IngestResult parsed = timed(
          "parsers.ingest", id, [&] { return parsers::ingest_files(dirs[k], ingest_options); });
      const std::string name = corpus_name(specs[k]);
      if (!parsed.ok()) {
        run.check(false, name + ": ingest failed: " + parsed.error->to_string());
        continue;
      }
      const core::AnalysisResult result =
          timed("core.analyze", id, [&] { return engine.analyze(parsed); });
      const std::string report = timed("core.report", id, [&] { return report_of(parsed); });
      const auto saved =
          timed("snapshot.save", id, [&] { return parsers::save_snapshot(parsed, snaps[k]); });
      run.check(parsed.total_lines == parsed.parsed_records + parsed.skipped_lines,
                name + ": total_lines != parsed + skipped");
      run.check(digest(report) == expected.at(name),
                name + ": report differs from the in-memory parse_corpus report");
      run.check(!saved, name + ": snapshot save failed: " + (saved ? saved->to_string() : ""));
      c.lines += parsed.total_lines;
      c.skipped += parsed.skipped_lines;
      c.records += parsed.parsed_records;
      c.symbols += parsed.store.symbols().size();
      c.jobs += parsed.jobs.size();
      c.failures += result.failures.size();
    }
    counts = c;
  };
  Samples traced;
  const Samples op_ms = run_batch(run, setup, op, traced);
  const double peak = peak_rss_mb();

  // The saved snapshots, loaded back, give the same report.
  std::uint64_t snapshot_bytes = 0;
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    const std::string name = corpus_name(specs[k]);
    const parsers::SnapshotLoadResult loaded = parsers::load_snapshot(snaps[k]);
    run.check(loaded.ok() && digest(report_of(loaded)) == expected.at(name),
              name + ": reloaded snapshot gives a different report");
    snapshot_bytes += std::filesystem::file_size(snaps[k]);
  }

  run.end_to_end(op_ms, 1e3 / op_ms.mean(), peak);
  run.detail("report_mb_per_s", static_cast<double>(log_bytes) / 1e6 / (op_ms.median() / 1e3),
             "MB/s");
  run.detail("log_bytes", static_cast<double>(log_bytes), "bytes");
  if (opt.trace) {
    const double ingest_ms = run.per_op("perfbench.parsers.ingest");
    run.layer.set("parsers.ingest_ms", ingest_ms);
    run.layer.set("parsers.ingest_mb_per_s",
                  ingest_ms > 0.0 ? static_cast<double>(log_bytes) / 1e3 / ingest_ms : 0.0);
    run.layer.set("parsers.parse_overlap",
                  ingest_ms > 0.0 ? run.per_op("hpcfail.ingest.parse_chunk") / ingest_ms : 0.0);
    for (const std::string source :
         {"console", "messages", "consumer", "controller", "erd", "scheduler"}) {
      run.layer.set("parsers.source_" + source + "_ms",
                    run.per_op("hpcfail.ingest.source_" + source));
    }
    run.layer.set("parsers.lines_total", static_cast<double>(counts.lines));
    run.layer.set("parsers.lines_skipped", static_cast<double>(counts.skipped));
    run.layer.set("parsers.records", static_cast<double>(counts.records));
    run.layer.set("logmodel.sort_shards_ms", run.per_op("hpcfail.store.sort_shards"));
    run.layer.set("logmodel.symbols", static_cast<double>(counts.symbols));
    run.layer.set("jobs.count", static_cast<double>(counts.jobs));
    run.layer.set("snapshot.save_ms", run.per_op("perfbench.snapshot.save"));
    run.layer.set("snapshot.bytes", static_cast<double>(snapshot_bytes));
    run.layer.set("core.analyze_ms", run.per_op("perfbench.core.analyze"));
    run.layer.set("core.report_ms", run.per_op("perfbench.core.report"));
    run.layer.set("core.failures", static_cast<double>(counts.failures));
    run.finish_layers(overhead_of(traced, op_ms));
  }
  return run.out;
}

// -------------------------------------------------------------- reproduce --

Outcome reproduce(const Options& opt) {
  Run run(opt);
  const auto specs = reproduce_presets(opt.tiny);
  const auto expected = read_expected(opt);

  util::ThreadPool pool(1);
  core::AnalysisConfig config;
  config.pool = &pool;
  const core::AnalysisEngine engine(config);
  // Set-up: an engine, the scenario presets and their topologies.
  const auto setup = [&] {
    const core::AnalysisEngine fresh(config);
    for (const CorpusSpec& spec : specs) {
      const hpcfail::platform::Topology topology(
          hpcfail::faultsim::scenario_preset(spec.system, spec.days, opt.seed).system.topology);
    }
  };

  struct Counts {
    std::size_t sim_records = 0, bytes = 0, lines = 0, skipped = 0, records = 0, symbols = 0,
                jobs = 0, failures = 0;
  };
  Counts counts;
  const auto op = [&](std::uint64_t id) {
    const Span root("op", id);
    Counts c;
    for (const CorpusSpec& spec : specs) {
      const auto sim = timed("faultsim.simulate", id, [&] {
        return hpcfail::faultsim::Simulator(
                   hpcfail::faultsim::scenario_preset(spec.system, spec.days, opt.seed))
            .run();
      });
      const loggen::Corpus corpus =
          timed("loggen.render", id, [&] { return loggen::build_corpus(sim); });
      const parsers::ParsedCorpus parsed = timed(
          "parsers.parse_corpus", id, [&] { return parsers::parse_corpus(corpus, &pool); });
      const core::AnalysisResult result =
          timed("core.analyze", id, [&] { return engine.analyze(parsed); });
      const std::string report = timed("core.report", id, [&] { return report_of(parsed); });
      const std::string name = corpus_name(spec);
      run.check(parsed.total_lines == parsed.parsed_records + parsed.skipped_lines,
                name + ": total_lines != parsed + skipped");
      run.check(digest(report) == expected.at(name),
                name + ": report differs from the ingest_files report");
      c.sim_records += sim.records.size();
      c.bytes += corpus.bytes();
      c.lines += parsed.total_lines;
      c.skipped += parsed.skipped_lines;
      c.records += parsed.parsed_records;
      c.symbols += parsed.store.symbols().size();
      c.jobs += parsed.jobs.size();
      c.failures += result.failures.size();
    }
    counts = c;
  };
  Samples traced;
  const Samples op_ms = run_batch(run, setup, op, traced);
  const double peak = peak_rss_mb();

  run.end_to_end(op_ms, 1e3 / op_ms.mean(), peak);
  run.detail("reproduce_s", op_ms.median() / 1e3, "s");
  if (opt.trace) {
    run.layer.set("faultsim.simulate_ms", run.per_op("perfbench.faultsim.simulate"));
    run.layer.set("faultsim.workload_ms", run.per_op("hpcfail.sim.workload"));
    run.layer.set("faultsim.failures_ms", run.per_op("hpcfail.sim.failures"));
    run.layer.set("faultsim.benign_ms", run.per_op("hpcfail.sim.benign"));
    run.layer.set("faultsim.records", static_cast<double>(counts.sim_records));
    const double render_ms = run.per_op("perfbench.loggen.render");
    run.layer.set("loggen.render_ms", render_ms);
    run.layer.set("loggen.bytes", static_cast<double>(counts.bytes));
    run.layer.set("loggen.render_mb_per_s",
                  render_ms > 0.0 ? static_cast<double>(counts.bytes) / 1e3 / render_ms : 0.0);
    run.layer.set("parsers.parse_corpus_ms", run.per_op("perfbench.parsers.parse_corpus"));
    run.layer.set("parsers.lines_total", static_cast<double>(counts.lines));
    run.layer.set("parsers.lines_skipped", static_cast<double>(counts.skipped));
    run.layer.set("parsers.records", static_cast<double>(counts.records));
    run.layer.set("logmodel.sort_shards_ms", run.per_op("hpcfail.store.sort_shards"));
    run.layer.set("logmodel.symbols", static_cast<double>(counts.symbols));
    run.layer.set("jobs.count", static_cast<double>(counts.jobs));
    run.layer.set("core.analyze_ms", run.per_op("perfbench.core.analyze"));
    run.layer.set("core.report_ms", run.per_op("perfbench.core.report"));
    run.layer.set("core.failures", static_cast<double>(counts.failures));
    run.finish_layers(overhead_of(traced, op_ms));
  }
  return run.out;
}

// ------------------------------------------------------------ serve layer --

const char* const kVerbs[] = {"status", "ping", "causes", "lead_time",
                              "node_health", "report", "metrics"};
constexpr std::size_t kVerbCount = std::size(kVerbs);

bool is_analysis_verb(std::size_t v) {
  const std::string_view verb = kVerbs[v];
  return verb == "causes" || verb == "lead_time" || verb == "report";
}

/// The perf_serve request mix: every verb the daemon answers in steady
/// state, one request line per kVerbs entry.
std::vector<std::string> request_mix(const std::string& node) {
  std::vector<std::string> mix;
  for (std::size_t v = 0; v < kVerbCount; ++v) {
    std::string line = "{\"id\":" + std::to_string(v + 1) + ",\"verb\":\"" + kVerbs[v] + "\"";
    if (std::string_view(kVerbs[v]) == "node_health") {
      line += ",\"params\":{\"node\":\"" + node + "\"}";
    }
    mix.push_back(line + "}");
  }
  return mix;
}

/// True when `response` is an ok:true envelope (cheap prefix test).
bool ok_envelope(const std::string& response) {
  const auto at = response.find(",\"ok\":true,");
  return at != std::string::npos && at < 32;
}

struct Booted {
  std::unique_ptr<serve::Server> server;
  std::size_t records = 0;
  std::string node;       ///< node_health target, picked by the seed
  std::size_t phase = 0;  ///< verb the request stream starts at, picked by the seed
};

/// Set-up of both serve workloads, repeated kServeSetupReps times:
/// load_snapshot + Server construction (monitor replay) + the first
/// analysis fill.  Returns the last server booted.
Booted boot_server(Run& run) {
  Booted booted;
  Samples load_ms;
  Samples boot_ms;
  std::size_t alerts = 0;
  for (int r = 0; r < kServeSetupReps; ++r) {
    booted.server.reset();
    const auto t0 = Clock::now();
    parsers::SnapshotLoadResult loaded = parsers::load_snapshot(boot_snapshot(run.opt));
    const auto t1 = Clock::now();
    if (!loaded.ok()) throw std::runtime_error("boot snapshot: " + loaded.error->to_string());
    booted.records = loaded.store.size();
    const auto& nodes = loaded.store.nodes();
    booted.node = loaded.topology.node_name(nodes[run.opt.seed % nodes.size()]);
    booted.phase = run.opt.seed % kVerbCount;
    booted.server = std::make_unique<serve::Server>(std::move(loaded));
    const auto t2 = Clock::now();
    const std::string first = booted.server->handle_line(R"({"id":0,"verb":"causes"})");
    run.setup_s.add(seconds_between(t0, Clock::now()));
    run.check(ok_envelope(first), "first analysis fill failed: " + first.substr(0, 200));
    load_ms.add(ms_between(t0, t1));
    boot_ms.add(ms_between(t1, t2));
    alerts = booted.server->boot_alerts().size();
  }
  run.layer.set("snapshot.load_ms", load_ms.median());
  run.layer.set("serve.boot_ms", boot_ms.median());
  run.layer.set("core.monitor_alerts", static_cast<double>(alerts));
  return booted;
}

/// Parsed `data` object of an ok response, or nullopt.
std::optional<serve::JsonValue> data_of(const std::string& response) {
  auto parsed = serve::JsonValue::parse(response);
  if (!parsed) return std::nullopt;
  const serve::JsonValue* ok = parsed->find("ok");
  const serve::JsonValue* data = parsed->find("data");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || data == nullptr) return std::nullopt;
  return *data;
}

/// The markdown report as the `report` verb serves it: every section, in
/// order, concatenated.
std::optional<std::string> served_report(serve::Server& server) {
  const auto list = data_of(server.handle_line(R"({"id":1,"verb":"report"})"));
  const serve::JsonValue* sections = list ? list->find("sections") : nullptr;
  if (sections == nullptr || !sections->is_array()) return std::nullopt;
  std::string text;
  for (const serve::JsonValue& title : sections->items()) {
    std::string request = R"({"id":2,"verb":"report","params":{"section":)";
    serve::append_json_string(request, title.as_string());
    const auto section = data_of(server.handle_line(request + "}}"));
    const serve::JsonValue* body = section ? section->find("text") : nullptr;
    if (body == nullptr || !body->is_string()) return std::nullopt;
    text += body->as_string();
  }
  return text;
}

/// The part of a markdown report the `report` verb serves (from the first
/// "## " heading on).
std::string sectioned(const std::string& report) {
  if (report.compare(0, 3, "## ") == 0) return report;
  const auto at = report.find("\n## ");
  return at == std::string::npos ? std::string() : report.substr(at + 1);
}

// -------------------------------------------------------------- live_tail --

Outcome live_tail(const Options& opt) {
  Run run(opt);
  Booted booted = boot_server(run);
  serve::Server& server = *booted.server;
  const std::vector<std::string> mix = request_mix(booted.node);
  const std::vector<TailLine> lines = read_tail_lines(opt);

  std::map<LogSource, std::FILE*> files;
  for (const LogSource source : {LogSource::Console, LogSource::Controller}) {
    const std::string path = tail_file(opt, source);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot create " + path);
    files[source] = f;
    server.attach_tail(path, source, 0);
  }

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + to_duration(opt.seconds);
  const auto mid = start + to_duration(opt.seconds / 2);
  // Lines land a quarter request interval after a request is due, so no
  // append races the poll of a request due at the same instant.
  const auto line_due = [&](std::size_t i) {
    return start + to_duration(static_cast<double>(i) / kTailLinesPerSecond +
                               0.25 / kRequestsPerSecond);
  };
  const auto request_due = [&](std::size_t j) {
    return start + to_duration(static_cast<double>(j) / kRequestsPerSecond);
  };

  // Open-loop writer: appends each replay line at its due time.
  std::atomic<std::size_t> appended{0};
  Samples late_ms;
  late_ms.reserve(static_cast<std::size_t>(opt.seconds * kTailLinesPerSecond) + 16);
  std::thread appender([&] {
    for (std::size_t i = 0; i < lines.size() && line_due(i) < end; ++i) {
      wait_until(line_due(i));
      std::FILE* f = files.at(lines[i].source);
      std::fputs(lines[i].text.c_str(), f);
      std::fputc('\n', f);
      std::fflush(f);
      late_ms.add(ms_between(line_due(i), Clock::now()));
      appended.store(i + 1, std::memory_order_release);
    }
  });
  // Joins the writer on every path out of the session loop; it stops by
  // itself at `end`.
  struct JoinOnExit {
    std::thread& thread;
    ~JoinOnExit() {
      if (thread.joinable()) thread.join();
    }
  } join_appender{appender};

  Samples latency_ms, service_untraced, service_traced, queue_ms, fresh_ms, poll_ms,
      poll_empty_us, recompute_ms;
  std::vector<Samples> verb_us(kVerbCount);
  std::size_t consumed = 0, published = 0, tail_records = 0, alerts = 0, analysis_requests = 0;
  const std::uint64_t recomputes_before = server.analysis_recomputes();
  const std::uint64_t epoch_before = server.epoch();
  Tracing tracing;
  bool traced = false;
  for (std::size_t j = 0; request_due(j) < end; ++j) {
    const auto due = request_due(j);
    if (opt.trace && !traced && due >= mid) {
      tracing.start();
      traced = true;
    }
    wait_until(due);
    const std::size_t v = (j + booted.phase) % kVerbCount;
    const auto t0 = Clock::now();
    Clock::time_point t_polled;
    Clock::time_point t_done;
    serve::Server::TailPoll poll;
    std::string response;
    bool recomputed = false;
    {
      const Span root("op", j);
      poll = timed("serve.poll_tail", j, [&] { return server.poll_tail(); });
      t_polled = Clock::now();
      const std::uint64_t before = server.analysis_recomputes();
      response = timed("serve.handle_line", j, [&] { return server.handle_line(mix[v]); });
      t_done = Clock::now();
      recomputed = server.analysis_recomputes() != before;
    }
    latency_ms.add(ms_between(due, t_done));
    (traced ? service_traced : service_untraced).add(ms_between(t0, t_done));
    queue_ms.add(ms_between(due, t0));
    (poll.records > 0 ? poll_ms : poll_empty_us)
        .add(poll.records > 0 ? ms_between(t0, t_polled) : 1e3 * ms_between(t0, t_polled));
    verb_us[v].add(1e3 * ms_between(t_polled, t_done));
    if (recomputed) recompute_ms.add(ms_between(t_polled, t_done));
    if (is_analysis_verb(v)) ++analysis_requests;
    consumed += poll.lines;
    tail_records += poll.records;
    alerts += poll.alerts.size();
    // Lines are consumed in append order, so the first `consumed` lines
    // are the ones this poll (or an earlier one) made visible.
    for (; published < consumed; ++published) {
      fresh_ms.add(ms_between(line_due(published), t_polled));
    }
    run.check(poll.ok(), "tail error: " + (poll.ok() ? "" : poll.error->to_string()));
    run.check(data_of(response).has_value(), "not ok: " + response.substr(0, 200));
  }
  appender.join();
  if (traced) run.ledger = tracing.stop();
  for (auto& [source, f] : files) std::fclose(f);

  // Drain what the last request did not see: every appended line must
  // become visible.
  const serve::Server::TailPoll drain = server.poll_tail();
  consumed += drain.lines;
  tail_records += drain.records;
  run.check(drain.ok(), "tail error on drain");
  const std::size_t appended_lines = appended.load(std::memory_order_acquire);
  run.check(consumed == appended_lines,
            "appended " + std::to_string(appended_lines) + " lines, " +
                std::to_string(consumed) + " made visible");
  const double peak = peak_rss_mb();

  // Final epoch vs a fresh batch report over boot corpus + appended lines.
  const auto status = data_of(server.handle_line(R"({"id":1,"verb":"status"})"));
  const serve::JsonValue* records = status ? status->find("records") : nullptr;
  const serve::JsonValue* served_tail = status ? status->find("tail_records") : nullptr;
  const double status_records = records != nullptr ? records->as_number() : -1.0;
  run.check(served_tail != nullptr &&
                status_records == static_cast<double>(booted.records) + served_tail->as_number() &&
                served_tail->as_number() == static_cast<double>(tail_records),
            "status records != boot records + parsed tail records");
  loggen::Corpus reference = loggen::read_corpus(boot_dir(opt));
  for (std::size_t i = 0; i < appended_lines; ++i) {
    reference.of(lines[i].source) += lines[i].text + "\n";
  }
  util::ThreadPool pool(1);
  const parsers::ParsedCorpus batch = parsers::parse_corpus(reference, &pool);
  run.check(status_records == static_cast<double>(batch.store.size()),
            "status records != batch parse of boot corpus + appended lines");
  const auto served = served_report(server);
  run.check(served && *served == sectioned(report_of(batch)),
            "final epoch report differs from the batch report");

  const double busy_s = (service_untraced.sum() + service_traced.sum()) / 1e3;
  run.end_to_end(latency_ms, static_cast<double>(latency_ms.size()) / busy_s, peak);
  double pct = 0.0;
  run.detail("query_p50_us", latency_ms.median() * 1e3, "us");
  run.detail("query_p99_us", latency_ms.tail(pct) * 1e3, "us");
  run.detail("fresh_p50_ms", fresh_ms.median(), "ms");
  run.detail("fresh_p99_ms", fresh_ms.tail(pct), "ms");
  run.detail("fresh_tail_percentile", pct, "pct");
  run.detail("fresh_samples", static_cast<double>(fresh_ms.size()), "count");
  run.detail("bench_late_max_ms", late_ms.quantile(1.0), "ms");
  if (opt.trace) {
    run.layer.set("serve.poll_p50_ms", poll_ms.median());
    run.layer.set("serve.poll_p99_ms", poll_ms.quantile(0.99));
    run.layer.set("serve.poll_empty_us", poll_empty_us.median());
    run.layer.set("serve.tail_lines", static_cast<double>(consumed));
    run.layer.set("serve.tail_records", static_cast<double>(tail_records));
    run.layer.set("serve.epochs", static_cast<double>(server.epoch() - epoch_before));
    const std::uint64_t recomputes = server.analysis_recomputes() - recomputes_before;
    run.layer.set("serve.recomputes", static_cast<double>(recomputes));
    run.layer.set("serve.recompute_ms", recompute_ms.median());
    run.layer.set("serve.cache_hit_ratio",
                  analysis_requests == 0
                      ? 0.0
                      : 1.0 - static_cast<double>(recomputes) /
                                  static_cast<double>(analysis_requests));
    run.layer.set("serve.queue_wait_p50_ms", queue_ms.median());
    run.layer.set("serve.queue_wait_p99_ms", queue_ms.quantile(0.99));
    run.layer.set("serve.fresh_p50_ms", fresh_ms.median());
    run.layer.set("serve.fresh_p99_ms", fresh_ms.quantile(0.99));
    for (std::size_t v = 0; v < kVerbCount; ++v) {
      run.layer.set(std::string("serve.verb_") + kVerbs[v] + "_us", verb_us[v].median());
    }
    run.layer.set("core.monitor_alerts",
                  static_cast<double>(server.boot_alerts().size() + alerts));
    run.layer.set("parsers.records", static_cast<double>(booted.records));
    run.layer.set("bench.late_ms", late_ms.quantile(0.99));
    run.layer.set("core.analyze_ms", run.per_op("hpcfail.engine.run"));
    run.finish_layers(overhead_of(service_traced, service_untraced));
  }
  return run.out;
}

// -------------------------------------------------------------- dashboard --

Outcome dashboard(const Options& opt) {
  Run run(opt);
  Booted booted = boot_server(run);
  serve::Server& server = *booted.server;
  const std::vector<std::string> mix = request_mix(booted.node);

  // Per-window figures: a run reports the median over its one-second
  // windows, so a burst of outside load that spoils a few windows does not
  // move the result.
  const auto windows_in = [](double seconds) {
    return static_cast<std::size_t>(std::max(1.0, std::floor(seconds / kWindowSeconds)));
  };
  struct Client {
    std::vector<Samples> window_us;           ///< sampled latencies per window
    std::vector<std::uint64_t> window_count;  ///< requests completed per window
    std::vector<Samples> verb_us = std::vector<Samples>(kVerbCount);
    std::uint64_t requests = 0;
    std::uint64_t analysis_requests = 0;
    std::uint64_t not_ok = 0;
    double busy_s = 0.0;
    std::string first_bad;
  };
  std::uint64_t next_id = 0;
  // One closed-loop phase: every client sends the mix back to back for
  // `seconds` (or `cap` requests).
  const auto phase = [&](double seconds, std::uint64_t cap, std::vector<Client>& clients) {
    const auto t_begin = Clock::now();
    const auto deadline = t_begin + to_duration(seconds);
    const std::size_t windows = windows_in(seconds);
    for (Client& client : clients) {
      client.window_us.resize(windows);
      client.window_count.assign(windows, 0);
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < kDashboardClients; ++c) {
      const std::uint64_t id_base = next_id + (static_cast<std::uint64_t>(c) << 40);
      threads.emplace_back([&, c, id_base, windows] {
        Client& me = clients[static_cast<std::size_t>(c)];
        try {
          for (std::uint64_t r = 0;; ++r) {
            const std::size_t v =
                (r + static_cast<std::uint64_t>(c) + booted.phase) % kVerbCount;
            const auto t0 = Clock::now();
            std::string response;
            {
              const Span root("op", id_base + r);
              response = timed("serve.handle_line", id_base + r,
                               [&] { return server.handle_line(mix[v]); });
            }
            const auto t1 = Clock::now();
            const std::size_t w = std::min(
                windows - 1,
                static_cast<std::size_t>(seconds_between(t_begin, t1) / kWindowSeconds));
            ++me.requests;
            ++me.window_count[w];
            if (is_analysis_verb(v)) ++me.analysis_requests;
            me.busy_s += seconds_between(t0, t1);
            if (r % kSampleEvery == 0) {
              const double us = 1e3 * ms_between(t0, t1);
              me.window_us[w].add(us);
              me.verb_us[v].add(us);
            }
            if (!ok_envelope(response)) {
              if (me.not_ok++ == 0) me.first_bad = response.substr(0, 200);
            }
            if (t1 >= deadline || me.requests >= cap) break;
          }
        } catch (const std::exception& e) {
          if (me.not_ok++ == 0) me.first_bad = std::string("client stopped: ") + e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    next_id += std::uint64_t{1} << 41;
  };

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Client> clients(kDashboardClients);
  std::vector<Client> traced_clients(kDashboardClients);
  phase(untraced_s, UINT64_MAX, clients);
  if (opt.trace) {
    Tracing tracing;
    tracing.start();
    phase(opt.seconds - untraced_s, kTracedRequestsPerClient, traced_clients);
    run.ledger = tracing.stop();
  }
  const double peak = peak_rss_mb();

  // Per-window p50, tail and throughput of the untraced phase.
  const std::size_t windows = windows_in(untraced_s);
  Samples window_p50_us, window_tail_us, window_qps, latency_us;
  double pct = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    Samples in_window;
    std::uint64_t count = 0;
    for (const Client& c : clients) {
      in_window.append(c.window_us[w]);
      count += c.window_count[w];
    }
    latency_us.append(in_window);
    window_p50_us.add(in_window.median());
    window_tail_us.add(in_window.tail(pct));
    window_qps.add(static_cast<double>(count) / kWindowSeconds);
  }
  std::vector<Samples> verb_us(kVerbCount);
  std::uint64_t requests = 0;
  double busy_untraced = 0.0;
  double busy_traced = 0.0;
  std::uint64_t traced_requests = 0;
  for (const std::vector<Client>* set : {&clients, &traced_clients}) {
    for (const Client& c : *set) {
      run.out.attempted += c.requests;
      run.out.failed += c.not_ok;
      if (c.not_ok != 0 && run.out.problems.size() < kMaxProblems) {
        run.out.problems.push_back("not ok: " + c.first_bad);
      }
    }
  }
  for (const Client& c : clients) {
    for (std::size_t v = 0; v < kVerbCount; ++v) verb_us[v].append(c.verb_us[v]);
    requests += c.requests;
    busy_untraced += c.busy_s;
  }
  for (const Client& c : traced_clients) {
    busy_traced += c.busy_s;
    traced_requests += c.requests;
  }
  run.check(server.analysis_recomputes() == 1,
            "analysis recomputed " + std::to_string(server.analysis_recomputes()) +
                " times; the epoch cache must fill exactly once");

  const double ops_per_s = window_qps.median();
  run.out.end_to_end = {
      {"setup_s", run.setup_s.median(), "s"},
      {"peak_rss_mb", peak, "MB"},
      {"op_p50_ms", window_p50_us.median() / 1e3, "ms"},
      {"ops_per_s", ops_per_s, "1/s"},
  };
  run.detail("op_tail_ms", window_tail_us.median() / 1e3, "ms");
  run.detail("op_tail_percentile", pct, "pct");
  run.detail("op_samples", static_cast<double>(latency_us.size()), "count");
  run.detail("windows", static_cast<double>(windows), "count");
  run.detail("requests", static_cast<double>(requests), "count");
  run.detail("query_p50_us", window_p50_us.median(), "us");
  run.detail("query_p99_us", window_tail_us.median(), "us");
  run.detail("queries_per_s", ops_per_s, "1/s");
  if (opt.trace) {
    for (std::size_t v = 0; v < kVerbCount; ++v) {
      run.layer.set(std::string("serve.verb_") + kVerbs[v] + "_us", verb_us[v].median());
    }
    // Every analysis verb after the set-up fill should be a cache hit.
    std::uint64_t analysis_requests = 0;
    for (const Client& c : clients) analysis_requests += c.analysis_requests;
    const std::uint64_t recomputes = server.analysis_recomputes() - 1;
    run.layer.set("serve.recomputes", static_cast<double>(recomputes));
    run.layer.set("serve.cache_hit_ratio",
                  analysis_requests == 0
                      ? 0.0
                      : 1.0 - static_cast<double>(recomputes) /
                                  static_cast<double>(analysis_requests));
    const double untraced_mean =
        busy_untraced / static_cast<double>(std::max<std::uint64_t>(1, requests));
    const double traced_mean =
        busy_traced / static_cast<double>(std::max<std::uint64_t>(1, traced_requests));
    run.finish_layers(untraced_mean > 0.0 ? traced_mean / untraced_mean : 0.0);
  }
  return run.out;
}

}  // namespace

Outcome run_workload(const Options& opt) {
  if (opt.workload == "postmortem") return postmortem(opt);
  if (opt.workload == "reproduce") return reproduce(opt);
  if (opt.workload == "live_tail") return live_tail(opt);
  if (opt.workload == "dashboard") return dashboard(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
