// Observability contract tests: the metrics registry's semantics under
// concurrency, the RAII trace spans' nesting guarantees, and — through the
// strict util::JsonValue parser the daemon uses on requests — the exact
// bytes and schemas of both exports ("hpcfail.metrics.v1" and the
// chrome://tracing Trace Event Format).
// These pin what DESIGN.md §6 promises; the determinism side (instrumented
// runs produce byte-identical analysis results) lives in engine_test.cpp
// and ingest_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "faultsim/scenario.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using hpcfail::util::Counter;
using hpcfail::util::Gauge;
using hpcfail::util::Histogram;
using hpcfail::util::install_metrics;
using hpcfail::util::install_trace;
using hpcfail::util::JsonValue;
using hpcfail::util::MetricsRegistry;
using hpcfail::util::TraceEvent;
using hpcfail::util::TraceRecorder;
using hpcfail::util::TraceSpan;

/// Keeps the process-wide sinks clean even when an assertion fires mid-test.
struct SinkGuard {
  explicit SinkGuard(MetricsRegistry* m = nullptr, TraceRecorder* t = nullptr) {
    install_metrics(m);
    install_trace(t);
  }
  ~SinkGuard() {
    install_metrics(nullptr);
    install_trace(nullptr);
  }
};

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterIsMonotonicAndSnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("hpcfail.test.beta").add(3);
  reg.counter("hpcfail.test.alpha").increment();
  reg.counter("hpcfail.test.beta").increment();
  EXPECT_EQ(reg.counter("hpcfail.test.beta").value(), 4u);

  const auto snapshot = reg.counters();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0], (std::pair<std::string, std::uint64_t>{"hpcfail.test.alpha", 1}));
  EXPECT_EQ(snapshot[1], (std::pair<std::string, std::uint64_t>{"hpcfail.test.beta", 4}));
}

TEST(MetricsRegistry, GaugeIsLastWriteWinsWithRelativeAdjustment) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("hpcfail.test.depth");
  g.set(10);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  g.add(5);
  g.add(-1);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(&reg.gauge("hpcfail.test.depth"), &g);
}

TEST(MetricsRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("hpcfail.test.latency_us", {1.0, 10.0, 100.0});
  h.observe(1.0);    // on the edge -> bucket 0
  h.observe(-5.0);   // below every edge -> bucket 0
  h.observe(10.0);   // on the edge -> bucket 1
  h.observe(10.5);   // -> bucket 2
  h.observe(1000.0); // past the last edge -> the implicit +inf bucket
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1016.5);
}

TEST(MetricsRegistry, HistogramReRegistrationWithDifferentBoundsThrows) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("hpcfail.test.latency_us", {1.0, 10.0});
  // Same bounds (even unsorted / with duplicates) resolve to the same slot.
  EXPECT_EQ(&reg.histogram("hpcfail.test.latency_us", {10.0, 1.0, 10.0}), &h);
  EXPECT_THROW((void)reg.histogram("hpcfail.test.latency_us", {1.0, 20.0}),
               std::logic_error);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter& c = reg.counter("hpcfail.test.hits");
  Histogram& h = reg.histogram("hpcfail.test.values", {0.5});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.increment();
        h.observe(t % 2 == 0 ? 0.0 : 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{
                            static_cast<std::uint64_t>(kThreads) / 2 * kPerThread,
                            static_cast<std::uint64_t>(kThreads) / 2 * kPerThread}));
}

// ---------------------------------------------------------------------------
// Sink installation and dark-by-default behavior
// ---------------------------------------------------------------------------

TEST(Sinks, DarkByDefaultAndInstallUninstallRoundTrips) {
  EXPECT_EQ(hpcfail::util::metrics(), nullptr);
  EXPECT_EQ(hpcfail::util::trace(), nullptr);
  {
    MetricsRegistry reg;
    TraceRecorder rec;
    SinkGuard guard(&reg, &rec);
    EXPECT_EQ(hpcfail::util::metrics(), &reg);
    EXPECT_EQ(hpcfail::util::trace(), &rec);
  }
  EXPECT_EQ(hpcfail::util::metrics(), nullptr);
  EXPECT_EQ(hpcfail::util::trace(), nullptr);
}

TEST(Sinks, SpansAreInertWhenNoRecorderIsInstalled) {
  TraceRecorder rec;
  {
    TraceSpan dark("hpcfail.test.dark");
    EXPECT_FALSE(dark.active());
  }
  {
    SinkGuard guard(nullptr, &rec);
    TraceSpan lit("hpcfail.test.lit");
    EXPECT_TRUE(lit.active());
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "hpcfail.test.lit");
}

TEST(Sinks, TraceNameSegmentSanitizesRuntimeLabels) {
  EXPECT_EQ(hpcfail::util::trace_name_segment("cause-aggregates"), "cause_aggregates");
  EXPECT_EQ(hpcfail::util::trace_name_segment("Lead Times #1"), "lead_times__1");
  EXPECT_EQ(hpcfail::util::trace_name_segment(""), "unnamed");
}

// ---------------------------------------------------------------------------
// Span nesting
// ---------------------------------------------------------------------------

TEST(TraceSpans, NestedSpansRecordInCompletionOrderAndContainEachOther) {
  TraceRecorder rec;
  SinkGuard guard(nullptr, &rec);
  {
    TraceSpan outer("hpcfail.test.outer");
    {
      TraceSpan inner("hpcfail.test.inner");
    }
    TraceSpan sibling("hpcfail.test.sibling");
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  // events() is completion order: inner closes before its parent.
  EXPECT_EQ(events[0].name, "hpcfail.test.inner");
  EXPECT_EQ(events[1].name, "hpcfail.test.sibling");
  EXPECT_EQ(events[2].name, "hpcfail.test.outer");
  const TraceEvent& inner = events[0];
  const TraceEvent& sibling = events[1];
  const TraceEvent& outer = events[2];
  EXPECT_EQ(inner.tid, outer.tid);
  // RAII scoping: both children lie inside [outer.ts, outer.ts + outer.dur].
  for (const TraceEvent* child : {&inner, &sibling}) {
    EXPECT_GE(child->ts_us, outer.ts_us);
    EXPECT_LE(child->ts_us + child->dur_us, outer.ts_us + outer.dur_us);
    EXPECT_GE(child->dur_us, 0);
  }
  EXPECT_GE(sibling.ts_us, inner.ts_us + inner.dur_us);
}

TEST(TraceSpans, ThreadIdsAreDensifiedInFirstSeenOrder) {
  TraceRecorder rec;
  SinkGuard guard(nullptr, &rec);
  {
    TraceSpan main_span("hpcfail.test.main_thread");
  }
  std::thread worker([] { TraceSpan span("hpcfail.test.worker_thread"); });
  worker.join();
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  std::map<std::string, std::uint32_t> tid_by_name;
  for (const auto& e : events) tid_by_name[e.name] = e.tid;
  EXPECT_EQ(tid_by_name.at("hpcfail.test.main_thread"), 0u);
  EXPECT_EQ(tid_by_name.at("hpcfail.test.worker_thread"), 1u);
}

// ---------------------------------------------------------------------------
// Export schemas
// ---------------------------------------------------------------------------

/// Parses an export with the strict parser; a rejected document fails the
/// test and yields null.
JsonValue parse_json(const std::string& text) {
  std::optional<JsonValue> doc = JsonValue::parse(text);
  EXPECT_TRUE(doc.has_value()) << "export is not valid JSON: " << text;
  return doc.value_or(JsonValue{});
}

// This test and TraceJson.ExportMatchesChromeTraceSchemaAndEscapes pin both
// exports byte for byte: the literals are what the writers produced before
// they moved onto util/json.  The histogram's sum (104.73456789) pins the
// 6-significant-digit rendering of fractions.
TEST(MetricsJson, ExportMatchesSchemaWithSortedKeys) {
  MetricsRegistry reg;
  reg.counter("hpcfail.test.beta").add(7);
  reg.counter("hpcfail.test.alpha").add(2);
  reg.gauge("hpcfail.test.depth").set(-4);
  reg.histogram("hpcfail.test.latency_us", {1.0, 10.0}).observe(3.5);
  reg.histogram("hpcfail.test.latency_us", {1.0, 10.0}).observe(100.0);
  reg.histogram("hpcfail.test.latency_us", {1.0, 10.0}).observe(1.23456789);

  const std::string json = reg.to_json();
  EXPECT_EQ(json, reg.to_json()) << "export must be deterministic";
  EXPECT_EQ(json,
            R"({"schema":"hpcfail.metrics.v1",)"
            R"("counters":{"hpcfail.test.alpha":2,"hpcfail.test.beta":7},)"
            R"("gauges":{"hpcfail.test.depth":-4},)"
            R"("histograms":{"hpcfail.test.latency_us":{"bounds":[1,10],)"
            R"("counts":[0,2,1],"count":3,"sum":104.735}}})");

  const JsonValue root = parse_json(json);
  ASSERT_EQ(root.kind(), JsonValue::Kind::Object);
  ASSERT_EQ(root.members().size(), 4u);
  EXPECT_EQ(root.members()[0].first, "schema");
  EXPECT_EQ(root.members()[1].first, "counters");
  EXPECT_EQ(root.members()[2].first, "gauges");
  EXPECT_EQ(root.members()[3].first, "histograms");
  EXPECT_EQ(root.find("schema")->as_string(), "hpcfail.metrics.v1");

  const JsonValue& counters = *root.find("counters");
  ASSERT_EQ(counters.members().size(), 2u);
  EXPECT_EQ(counters.members()[0].first, "hpcfail.test.alpha");  // keys sorted
  EXPECT_EQ(counters.members()[0].second.as_number(), 2.0);
  EXPECT_EQ(counters.members()[1].first, "hpcfail.test.beta");
  EXPECT_EQ(counters.members()[1].second.as_number(), 7.0);

  EXPECT_EQ(root.find("gauges")->find("hpcfail.test.depth")->as_number(), -4.0);

  const JsonValue* hist = root.find("histograms")->find("hpcfail.test.latency_us");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->find("bounds"), nullptr);
  ASSERT_NE(hist->find("counts"), nullptr);
  ASSERT_EQ(hist->find("bounds")->items().size(), 2u);
  ASSERT_EQ(hist->find("counts")->items().size(), 3u) << "bounds + the +inf bucket";
  EXPECT_EQ(hist->find("bounds")->items()[0].as_number(), 1.0);
  EXPECT_EQ(hist->find("bounds")->items()[1].as_number(), 10.0);
  EXPECT_EQ(hist->find("counts")->items()[0].as_number(), 0.0);
  EXPECT_EQ(hist->find("counts")->items()[1].as_number(), 2.0);
  EXPECT_EQ(hist->find("counts")->items()[2].as_number(), 1.0);
  EXPECT_EQ(hist->find("count")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 104.735);
}

TEST(MetricsJson, NamesWithQuotesAndBackslashesAreEscaped) {
  MetricsRegistry reg;
  reg.counter("odd\"name\\x").increment();
  const JsonValue root = parse_json(reg.to_json());
  const JsonValue& counters = *root.find("counters");
  ASSERT_EQ(counters.members().size(), 1u);
  EXPECT_EQ(counters.members()[0].first, "odd\"name\\x");
}

// Names are not restricted to printable bytes: control characters must be
// escaped, or the export stops being JSON.
TEST(MetricsJson, ControlCharactersInNamesRoundTrip) {
  const std::string metric_name = "a\x01" "b";
  MetricsRegistry reg;
  reg.counter(metric_name).increment();
  const JsonValue metrics = parse_json(reg.to_json());
  ASSERT_NE(metrics.find("counters"), nullptr);
  ASSERT_EQ(metrics.find("counters")->members().size(), 1u);
  EXPECT_EQ(metrics.find("counters")->members()[0].first, metric_name);

  const std::string span_name = "a\nb\r";
  TraceRecorder rec;
  rec.record(span_name, 0, 1);
  const JsonValue trace = parse_json(rec.to_chrome_json());
  ASSERT_NE(trace.find("traceEvents"), nullptr);
  ASSERT_EQ(trace.find("traceEvents")->items().size(), 1u);
  EXPECT_EQ(trace.find("traceEvents")->items()[0].find("name")->as_string(), span_name);
}

/// Validates one parsed chrome trace document: event fields, sort order and
/// the per-thread containment property, returning the set of span names.
std::set<std::string> validate_chrome_trace(const JsonValue& root) {
  EXPECT_EQ(root.kind(), JsonValue::Kind::Object);
  const JsonValue* events = root.find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return {};
  EXPECT_EQ(events->kind(), JsonValue::Kind::Array);

  std::set<std::string> names;
  struct Interval {
    std::int64_t ts, end;
  };
  std::map<std::int64_t, std::vector<Interval>> stacks;  // tid -> open spans
  std::int64_t prev_ts = -1;
  std::int64_t prev_tid = -1;
  for (const JsonValue& e : events->items()) {
    EXPECT_EQ(e.kind(), JsonValue::Kind::Object);
    EXPECT_NE(e.find("name"), nullptr);
    names.insert(e.find("name")->as_string());
    EXPECT_EQ(e.find("cat")->as_string(), "hpcfail");
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_EQ(e.find("pid")->as_number(), 1.0);
    const auto ts = static_cast<std::int64_t>(e.find("ts")->as_number());
    const auto dur = static_cast<std::int64_t>(e.find("dur")->as_number());
    const auto tid = static_cast<std::int64_t>(e.find("tid")->as_number());
    EXPECT_GE(ts, 0);
    EXPECT_GE(dur, 0);
    EXPECT_GE(tid, 0);
    // Stable sort order: (ts, tid) ascending.
    EXPECT_TRUE(ts > prev_ts || (ts == prev_ts && tid >= prev_tid))
        << "events must be sorted by (ts, tid)";
    prev_ts = ts;
    prev_tid = tid;
    // Containment: within one thread, spans nest or are disjoint — never
    // partially overlapping (RAII scoping guarantees this).
    auto& stack = stacks[tid];
    while (!stack.empty() && stack.back().end <= ts) stack.pop_back();
    if (!stack.empty()) {
      EXPECT_LE(ts + dur, stack.back().end)
          << "span " << e.find("name")->as_string() << " partially overlaps its parent";
    }
    stack.push_back(Interval{ts, ts + dur});
  }
  return names;
}

TEST(TraceJson, ExportMatchesChromeTraceSchemaAndEscapes) {
  TraceRecorder rec;
  rec.record("hpcfail.test.with\"quote\\slash", 5, 2);
  rec.record("hpcfail.test.parent", 0, 10);
  rec.record("hpcfail.test.child", 2, 3);
  const std::string json = rec.to_chrome_json();
  EXPECT_EQ(json,
            R"({"traceEvents":[)"
            R"({"name":"hpcfail.test.parent","cat":"hpcfail","ph":"X",)"
            R"("ts":0,"dur":10,"pid":1,"tid":0},)"
            R"({"name":"hpcfail.test.child","cat":"hpcfail","ph":"X",)"
            R"("ts":2,"dur":3,"pid":1,"tid":0},)"
            R"({"name":"hpcfail.test.with\"quote\\slash","cat":"hpcfail","ph":"X",)"
            R"("ts":5,"dur":2,"pid":1,"tid":0}]})");
  const JsonValue root = parse_json(json);
  const std::set<std::string> names = validate_chrome_trace(root);
  EXPECT_TRUE(names.count("hpcfail.test.with\"quote\\slash"));
  EXPECT_TRUE(names.count("hpcfail.test.parent"));
  // Sorting puts the parent (ts 0) before both children.
  EXPECT_EQ(root.find("traceEvents")->items()[0].find("name")->as_string(),
            "hpcfail.test.parent");
}

// ---------------------------------------------------------------------------
// A real pipeline run under both sinks
// ---------------------------------------------------------------------------

TEST(PipelineObservability, TraceCoversSimulatorEngineAndContextPhases) {
  MetricsRegistry reg;
  TraceRecorder rec;
  hpcfail::core::AnalysisResult result;
  hpcfail::core::AnalysisEngine engine;
  {
    SinkGuard guard(&reg, &rec);
    // Declared after the guard so the pool joins (flushing instrumented
    // task epilogues) before the sinks are uninstalled.
    hpcfail::util::ThreadPool pool(2);
    auto sim = hpcfail::faultsim::Simulator(
                   hpcfail::faultsim::scenario_preset(
                       hpcfail::platform::SystemName::S1, 4, 41))
                   .run();
    const auto corpus = hpcfail::loggen::build_corpus(sim);
    const auto parsed = hpcfail::parsers::parse_corpus(corpus, &pool);
    result = engine.analyze(parsed);
  }

  const std::set<std::string> names = validate_chrome_trace(parse_json(rec.to_chrome_json()));
  EXPECT_TRUE(names.count("hpcfail.sim.run"));
  EXPECT_TRUE(names.count("hpcfail.engine.run"));
  EXPECT_TRUE(names.count("hpcfail.context.detect"));
  EXPECT_TRUE(names.count("hpcfail.context.diagnose"));
  for (const char* span : {"hpcfail.engine.analyzer_cause_aggregates",
                           "hpcfail.engine.analyzer_lead_times",
                           "hpcfail.engine.analyzer_external_correlation",
                           "hpcfail.engine.analyzer_benign_faults",
                           "hpcfail.engine.analyzer_clusters"}) {
    EXPECT_TRUE(names.count(span)) << "missing analyzer span " << span;
  }

  // The simulator's phase counters record its output volumes: the
  // workload phase counts the jobs it generated (their log records come
  // later, in the scheduler phase); the failure and scheduler phases count
  // records.
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : reg.counters()) counters[name] = value;
  ASSERT_TRUE(counters.count("hpcfail.sim.workload_jobs"));
  EXPECT_GT(counters["hpcfail.sim.workload_jobs"], 0u);
  EXPECT_FALSE(counters.count("hpcfail.sim.workload_records"));
  ASSERT_TRUE(counters.count("hpcfail.sim.failures_records"));
  EXPECT_GT(counters["hpcfail.sim.failures_records"], 0u);
  ASSERT_TRUE(counters.count("hpcfail.sim.job_log_records"));
  EXPECT_GT(counters["hpcfail.sim.job_log_records"], 0u);
  EXPECT_FALSE(result.failures.empty());
}

}  // namespace
