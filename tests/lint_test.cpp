// hpcfail-lint self-tests: each check runs against a deliberately drifted
// fixture tree under tests/data/lint/ and must report the exact gcc-style
// diagnostics, byte for byte — the lint's output contract is part of its
// interface (CI annotates from it).  The real tree must come back clean.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"
#include "sarif.hpp"
#include "support/json.hpp"

namespace {

using hpcfail::lint::Report;
using hpcfail::lint::run_checks;
using hpcfail::lint::to_sarif;
using hpcfail::test::JsonValue;
using hpcfail::test::parse_json;

std::filesystem::path fixture(const char* name) {
  return std::filesystem::path(HPCFAIL_LINT_FIXTURES) / name;
}

std::vector<std::string> rendered(const Report& report) {
  std::vector<std::string> out;
  out.reserve(report.diagnostics.size());
  for (const auto& d : report.diagnostics) out.push_back(d.to_string());
  return out;
}

TEST(LintErdTable, DriftedEmitterTemplateIsDiagnosedExactly) {
  const Report report = run_checks(fixture("erd_drift"), {"erd-table"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/loggen/renderer.cpp:9: error: [erd-table] 'ec_node_voltage_falt' "
                "(emitted ERD event name) has no counterpart in "
                "src/parsers/line_classifier.cpp",
                "src/loggen/renderer.cpp:10: error: [erd-table] 'ec_link_error' maps to "
                "LinkError here but to LaneDegrade in src/parsers/line_classifier.cpp",
                "src/parsers/line_classifier.cpp:8: error: [erd-table] "
                "'ec_node_voltage_fault' (parsed ERD event name) has no counterpart in "
                "src/loggen/renderer.cpp",
                "src/parsers/line_classifier.cpp:9: error: [erd-table] 'ec_link_error' "
                "maps to LaneDegrade here but to LinkError in src/loggen/renderer.cpp",
            }));
}

TEST(LintEventNames, DroppedAndReorderedNameTableIsDiagnosed) {
  const Report report = run_checks(fixture("event_drift"), {"event-names"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/logmodel/event_type.cpp:6: error: [event-names] kEventNames has 2 "
                "entries but EventType has 3 enumerators (to_string/"
                "event_type_from_string will misreport)",
                "src/logmodel/event_type.cpp:8: error: [event-names] kEventNames[1] is "
                "\"MachineCheckException\" but enumerator #1 is KernelOops (declared at "
                "src/logmodel/event_type.hpp:7)",
            }));
}

TEST(LintBannedPattern, NondeterministicSeedingIsDiagnosedAndSuppressible) {
  const Report report = run_checks(fixture("banned"), {"banned-pattern"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/faultsim/seeding.cpp:6: error: [banned-pattern] libc rand()/srand() "
                "is banned; use util::Rng (deterministic xoshiro256**)",
                "src/faultsim/seeding.cpp:6: error: [banned-pattern] wall-clock seeding "
                "is banned; simulation time comes from the scenario config",
                "src/faultsim/seeding.cpp:7: error: [banned-pattern] libc rand()/srand() "
                "is banned; use util::Rng (deterministic xoshiro256**)",
            }));
}

TEST(LintHeaderHygiene, MissingPragmaOnceAndUsingNamespaceAreDiagnosed) {
  const Report report = run_checks(fixture("hygiene"), {"header-hygiene"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/core/bad_header.hpp:1: error: [header-hygiene] header lacks "
                "#pragma once in its first 30 lines",
                "src/core/bad_header.hpp:5: error: [header-hygiene] `using namespace` "
                "in a header leaks into every includer",
            }));
}

TEST(LintCorpusFiles, DriftedFileNameTableIsDiagnosedExactly) {
  const Report report = run_checks(fixture("corpus_drift"), {"corpus-files"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/loggen/corpus.cpp:6: error: [corpus-files] 'p0-mesages.log' "
                "(corpus file name) has no counterpart in FORMATS.md",
                "FORMATS.md:6: error: [corpus-files] 'p0-messages.log' (documented "
                "corpus file) has no counterpart in src/loggen/corpus.cpp",
                "FORMATS.md:7: error: [corpus-files] 'erd.log' (documented corpus "
                "file) has no counterpart in src/loggen/corpus.cpp",
            }));
}

TEST(LintServeProtocol, DriftedVerbTableIsDiagnosedExactly) {
  const Report report = run_checks(fixture("serve_drift"), {"serve-protocol"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/serve/protocol.cpp:7: error: [serve-protocol] 'ping' maps to "
                "liveness probe, answers pong here but to liveness probe in "
                "FORMATS.md",
                "src/serve/protocol.cpp:8: error: [serve-protocol] 'statuss' "
                "(serve verb) has no counterpart in FORMATS.md",
                "FORMATS.md:7: error: [serve-protocol] 'lead_time' (documented "
                "verb) has no counterpart in src/serve/protocol.cpp",
                "FORMATS.md:8: error: [serve-protocol] 'ping' maps to liveness "
                "probe here but to liveness probe, answers pong in "
                "src/serve/protocol.cpp",
                "FORMATS.md:9: error: [serve-protocol] 'status' (documented verb) "
                "has no counterpart in src/serve/protocol.cpp",
            }));
}

TEST(LintBenchPipeline, HandWiredFigureBenchIsDiagnosed) {
  const Report report = run_checks(fixture("bench_drift"), {"bench-pipeline"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "bench/fig99_handwired.cpp:7: error: [bench-pipeline] figure bench "
                "calls analyze_failures() directly; route it through "
                "bench::run_pipeline or core::AnalysisEngine",
                "bench/fig99_handwired.cpp:1: error: [bench-pipeline] figure bench "
                "never uses bench::run_pipeline/run_system or core::AnalysisEngine; "
                "hand-wired analysis drifts from the shared pipeline",
            }));
}

TEST(LintBenchPipeline, MissingBenchDirectoryIsDiagnosed) {
  const Report report = run_checks(fixture("hygiene"), {"bench-pipeline"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "bench:0: error: [bench-pipeline] no bench/ directory under repo root",
            }));
}

TEST(LintMetricNaming, DriftedInstrumentNamesAreDiagnosedExactly) {
  const Report report = run_checks(fixture("metric_drift"), {"metric-naming"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/util/instrumented.cpp:8: error: [metric-naming] metric/span name "
                "'hpcfail.Ingest.BytesRead' drifts from hpcfail.<layer>.<snake_case> "
                "(lowercase snake_case segments, at least two after 'hpcfail')",
                "src/util/instrumented.cpp:9: error: [metric-naming] metric/span name "
                "'hpcfail.pool' drifts from hpcfail.<layer>.<snake_case> (lowercase "
                "snake_case segments, at least two after 'hpcfail')",
                "src/util/instrumented.cpp:10: error: [metric-naming] instrument name "
                "'ingest.chunks' is not rooted under 'hpcfail.'; metric and span names "
                "follow hpcfail.<layer>.<snake_case>",
                "src/util/instrumented.cpp:11: error: [metric-naming] metric/span name "
                "prefix 'hpcfail.pool.Worker' drifts from hpcfail.<layer>.<snake_case> "
                "(complete segments before the runtime suffix must be lowercase "
                "snake_case)",
                "src/util/instrumented.cpp:13: error: [metric-naming] metric/span name "
                "'hpcfail.engine.Analyzer' drifts from hpcfail.<layer>.<snake_case> "
                "(lowercase snake_case segments, at least two after 'hpcfail')",
            }));
}

TEST(LintFaultSites, DriftedSitesAndInventoryAreDiagnosedExactly) {
  const Report report = run_checks(fixture("fault_drift"), {"fault-sites"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/parsers/pipeline.cpp:6: error: [fault-sites] fault site "
                "'ingest.read.badbit' is already declared at "
                "src/parsers/pipeline.cpp:5; site names must be unique across the "
                "tree",
                "src/parsers/pipeline.cpp:7: error: [fault-sites] fault site "
                "'ingest.Read.torn' drifts from <layer>.<component>.<kind> "
                "(lowercase snake_case dot segments, at least three)",
                "src/parsers/pipeline.cpp:7: error: [fault-sites] fault site "
                "'ingest.Read.torn' is not listed in the kSites inventory "
                "(src/util/fault.cpp); the sweep harness cannot arm it",
                "src/parsers/pipeline.cpp:8: error: [fault-sites] fault site "
                "'parse.oops' drifts from <layer>.<component>.<kind> (lowercase "
                "snake_case dot segments, at least three)",
                "src/parsers/pipeline.cpp:8: error: [fault-sites] fault site "
                "'parse.oops' is not listed in the kSites inventory "
                "(src/util/fault.cpp); the sweep harness cannot arm it",
                "src/util/fault.cpp:4: error: [fault-sites] kSites entry "
                "'store.gone.bad_alloc' has no HPCFAIL_FAULT_SITE use in the tree; "
                "remove it or wire the site",
                "src/util/fault.cpp:5: error: [fault-sites] kSites entry "
                "'ingest.retire.bad_alloc' is out of order; the inventory stays "
                "sorted so the sweep enumeration is stable",
            }));
}

TEST(LintSnapshotVersion, BumpedConstantWithoutDocUpdateIsDiagnosedExactly) {
  const Report report = run_checks(fixture("snapshot_drift"), {"snapshot-version"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "FORMATS.md:5: error: [snapshot-version] documented snapshot "
                "format version **1** does not match kSnapshotFormatVersion = 2 "
                "in src/util/snapshot.hpp; bump the doc (and its layout "
                "section) with the constant",
            }));
}

TEST(LintCaptureLifetime, ByRefCapturesIntoPoolSinksAreDiagnosedExactly) {
  const Report report = run_checks(fixture("capture_drift"), {"capture-lifetime"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/parsers/pipeline.cpp:11: error: [capture-lifetime] lambda passed "
                "to ThreadPool::submit() captures by reference; a queued task can "
                "outlive the enclosing scope (the PR 1 use-after-scope class) — "
                "capture by value/move or justify with allow(capture-lifetime)",
                "src/parsers/pipeline.cpp:12: error: [capture-lifetime] lambda passed "
                "to ThreadPool::parallel_for_ranges() captures by reference; a queued "
                "task can outlive the enclosing scope (the PR 1 use-after-scope "
                "class) — capture by value/move or justify with "
                "allow(capture-lifetime)",
                "src/parsers/pipeline.cpp:24: error: [capture-lifetime] lambda passed "
                "to ThreadPool::submit() captures by reference; a queued task can "
                "outlive the enclosing scope (the PR 1 use-after-scope class) — "
                "capture by value/move or justify with allow(capture-lifetime)",
                "src/parsers/pipeline.cpp:23: error: [capture-lifetime] "
                "allow(capture-lifetime) suppression is missing its reason; write: "
                "// hpcfail-lint: allow(capture-lifetime) -- <why this is safe>",
            }));
}

TEST(LintDanglingView, EscapingViewsAndTemporaryBindingsAreDiagnosedExactly) {
  const Report report = run_checks(fixture("view_drift"), {"dangling-view"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/logmodel/views.cpp:13: error: [dangling-view] 'bad_name' returns "
                "a std::string_view derived from local/parameter 'name'; the view "
                "dangles when the function returns (the PR 5 hazard class) — return "
                "an owning type or a view of caller-owned data",
                "src/logmodel/views.cpp:17: error: [dangling-view] 'bad_ids' returns "
                "a std::span derived from local/parameter 'ids'; the view dangles "
                "when the function returns (the PR 5 hazard class) — return an owning "
                "type or a view of caller-owned data",
                "src/logmodel/views.cpp:33: error: [dangling-view] 'rejected' returns "
                "a std::string_view derived from local/parameter 'name'; the view "
                "dangles when the function returns (the PR 5 hazard class) — return "
                "an owning type or a view of caller-owned data",
                "src/logmodel/views.cpp:32: error: [dangling-view] "
                "allow(dangling-view) suppression is missing its reason; write: "
                "// hpcfail-lint: allow(dangling-view) -- <why this is safe>",
                "src/logmodel/views.cpp:21: error: [dangling-view] binds 'times()' "
                "off a temporary LogStore; the view dangles at the end of the full "
                "expression (the PR 5 hazard class) — name the LogStore first",
            }));
}

TEST(LintFinalizeProtocol, UnguardedPublicAccessorsAreDiagnosedExactly) {
  const Report report = run_checks(fixture("finalize_drift"), {"finalize-protocol"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/logmodel/log_store.hpp:13: error: [finalize-protocol] public "
                "LogStore::size() reads store state without a "
                "require_finalized()/finalized() guard and LogStore does not fail "
                "loud at construction; throw std::logic_error on non-finalized "
                "access or justify with allow(finalize-protocol)",
                "src/logmodel/log_store.hpp:17: error: [finalize-protocol] public "
                "LogStore::last() reads store state without a "
                "require_finalized()/finalized() guard and LogStore does not fail "
                "loud at construction; throw std::logic_error on non-finalized "
                "access or justify with allow(finalize-protocol)",
                "src/logmodel/log_store.hpp:16: error: [finalize-protocol] "
                "allow(finalize-protocol) suppression is missing its reason; write: "
                "// hpcfail-lint: allow(finalize-protocol) -- <why this is safe>",
            }));
}

TEST(LintRawSync, BareConcurrencyAndOwnershipPrimitivesAreDiagnosedExactly) {
  const Report report = run_checks(fixture("rawsync_drift"), {"raw-sync"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/monitor/watchdog.cpp:5: error: [raw-sync] bare std::thread "
                "outside src/util; route concurrency through util::ThreadPool "
                "(instrumented, exception-joining) or justify with allow(raw-sync)",
                "src/monitor/watchdog.cpp:6: error: [raw-sync] detach() leaves a "
                "task running past its owner's lifetime with no join point; submit "
                "to util::ThreadPool and hold the future instead",
                "src/monitor/watchdog.cpp:7: error: [raw-sync] raw `new` without an "
                "owning smart pointer; use std::make_unique (or a container) so "
                "ownership is explicit",
                "src/monitor/watchdog.cpp:9: error: [raw-sync] const_cast subverts "
                "the const contract of the API it touches; fix constness at the "
                "interface or take an explicit copy",
                "src/monitor/watchdog.cpp:21: error: [raw-sync] raw `new` without an "
                "owning smart pointer; use std::make_unique (or a container) so "
                "ownership is explicit",
                "src/monitor/watchdog.cpp:20: error: [raw-sync] allow(raw-sync) "
                "suppression is missing its reason; write: // hpcfail-lint: "
                "allow(raw-sync) -- <why this is safe>",
            }));
}

TEST(LintHotPathScan, RawNewlineScansAndLineVectorsAreDiagnosedExactly) {
  const Report report = run_checks(fixture("scan_drift"), {"hot-path-scan"});
  EXPECT_EQ(rendered(report),
            (std::vector<std::string>{
                "src/parsers/chunk_pipeline.cpp:8: error: [hot-path-scan] raw "
                "newline scan on the ingest hot path; use util::scan::find_byte/"
                "rfind_byte (SWAR/SIMD dispatched) or util::scan::LineCursor",
                "src/parsers/chunk_pipeline.cpp:12: error: [hot-path-scan] "
                "split_lines allocates a per-line vector on the ingest hot path; "
                "iterate with util::scan::LineCursor (zero allocation)",
                "src/parsers/chunk_pipeline.cpp:18: error: [hot-path-scan] raw "
                "newline scan on the ingest hot path; use util::scan::find_byte/"
                "rfind_byte (SWAR/SIMD dispatched) or util::scan::LineCursor",
                "src/parsers/chunk_pipeline.cpp:17: error: [hot-path-scan] "
                "allow(hot-path-scan) suppression is missing its reason; write: "
                "// hpcfail-lint: allow(hot-path-scan) -- <why this is safe>",
                "src/util/chunked_reader.cpp:6: error: [hot-path-scan] raw "
                "newline scan on the ingest hot path; use util::scan::find_byte/"
                "rfind_byte (SWAR/SIMD dispatched) or util::scan::LineCursor",
            }));
}

// A reasoned allow suppresses exactly its finding: the tolerated() cases in
// every drift fixture carry `allow(<check>) -- <reason>` and none of the
// pinned diagnostics above mention their lines.  This locks the other half
// of the contract: a reasonless allow never suppresses, and is itself
// diagnosed, in every one of the four fixtures.
TEST(LintSuppressions, ReasonlessAllowNeverSuppresses) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"capture_drift", "capture-lifetime"},
      {"view_drift", "dangling-view"},
      {"finalize_drift", "finalize-protocol"},
      {"rawsync_drift", "raw-sync"},
      {"scan_drift", "hot-path-scan"},
  };
  for (const auto& [name, check] : cases) {
    SCOPED_TRACE(name);
    const Report report = run_checks(fixture(name), {check});
    bool saw_missing_reason = false;
    for (const auto& d : report.diagnostics) {
      if (d.message.find("suppression is missing its reason") != std::string::npos) {
        saw_missing_reason = true;
      }
    }
    EXPECT_TRUE(saw_missing_reason);
  }
}

TEST(LintSarif, ReportRendersAsWellFormedSarif210) {
  const Report report = run_checks(fixture("rawsync_drift"), {"raw-sync"});
  ASSERT_FALSE(report.diagnostics.empty());

  const JsonValue doc = parse_json(to_sarif(report));
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  ASSERT_NE(doc.find("version"), nullptr);
  EXPECT_EQ(doc.find("version")->text, "2.1.0");
  ASSERT_NE(doc.find("$schema"), nullptr);

  const JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const JsonValue& run = runs->array[0];

  const JsonValue* tool = run.find("tool");
  ASSERT_NE(tool, nullptr);
  const JsonValue* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->find("name")->text, "hpcfail-lint");

  // One rule per registered check, ids matching the registry.
  const JsonValue* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  std::set<std::string> rule_ids;
  for (const auto& rule : rules->array) {
    ASSERT_NE(rule.find("id"), nullptr);
    ASSERT_NE(rule.find("shortDescription"), nullptr);
    rule_ids.insert(rule.find("id")->text);
  }
  for (const auto& name : hpcfail::lint::all_check_names()) {
    EXPECT_TRUE(rule_ids.count(name)) << name;
  }

  // One result per diagnostic, in order, with matching location/level.
  const JsonValue* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), report.diagnostics.size());
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const auto& d = report.diagnostics[i];
    const JsonValue& r = results->array[i];
    EXPECT_EQ(r.find("ruleId")->text, d.check);
    EXPECT_EQ(r.find("level")->text, "error");
    EXPECT_EQ(r.find("message")->find("text")->text, d.message);
    const JsonValue& loc = r.find("locations")->array.at(0);
    const JsonValue* phys = loc.find("physicalLocation");
    ASSERT_NE(phys, nullptr);
    EXPECT_EQ(phys->find("artifactLocation")->find("uri")->text, d.file);
    EXPECT_EQ(phys->find("region")->find("startLine")->number,
              static_cast<double>(d.line));
  }
}

TEST(LintClean, ConsistentFixtureTreePasses) {
  const Report report = run_checks(
      fixture("clean"),
      {"erd-table", "event-names", "corpus-files", "snapshot-version",
       "banned-pattern", "header-hygiene", "bench-pipeline", "metric-naming",
       "fault-sites", "capture-lifetime", "dangling-view", "finalize-protocol",
       "raw-sync", "hot-path-scan", "serve-protocol"});
  EXPECT_TRUE(report.ok()) << (report.ok() ? std::string{}
                                           : rendered(report).front());
}

TEST(LintClean, MissingFilesAreReportedNotFatal) {
  const Report report = run_checks(fixture("hygiene"), {"erd-table"});
  ASSERT_FALSE(report.ok());
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.line, 0u);
    EXPECT_NE(d.message.find("cannot read file"), std::string::npos);
  }
}

TEST(LintDispatch, UnknownCheckNameIsAUsageDiagnostic) {
  const Report report = run_checks(fixture("clean"), {"no-such-check"});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].check, "usage");
}

// The gate the ctest target enforces, exercised in-process as well so a
// plain `ctest` run fails locally the moment the real universes drift.
TEST(LintRealTree, AllChecksPassOnTheRepo) {
  const Report report = run_checks(HPCFAIL_REPO_ROOT);
  EXPECT_TRUE(report.ok()) << (report.ok() ? std::string{}
                                           : report.diagnostics.front().to_string());
}

}  // namespace
