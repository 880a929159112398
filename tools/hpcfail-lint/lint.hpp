// hpcfail-lint: domain-specific static analysis for the hpcfail repo.
//
// Two families of checks share one source model (cxx_model.hpp):
//
//  Consistency checks (PR 1 lineage) keep three universes aligned:
//    1. what the emitters can produce   (src/faultsim/chain_emitter.cpp via
//       src/loggen/renderer.cpp templates),
//    2. what the parsers can recover    (src/parsers/line_classifier.cpp,
//       src/parsers/source_parsers.cpp),
//    3. what the documentation promises (FORMATS.md).
//
//  Semantic checks distill this repo's actual production bug history into
//  token-level passes over the C++ sources:
//    - capture-lifetime: the PR 1 ThreadPool use-after-scope class,
//    - dangling-view:    the PR 5 span/string_view-of-temporary class,
//    - finalize-protocol: the fail-loud std::logic_error contract added in
//      PR 2/3 for non-finalized LogStore/AnalysisContext access,
//    - raw-sync:         bare std::thread/detach()/new/const_cast that
//      bypass the instrumented util::ThreadPool and ownership rules.
//
// Every check emits gcc-style file:line diagnostics (clickable, CI-parsed);
// run_checks() can also be rendered as SARIF 2.1.0 (sarif.hpp).  The only
// way to accept a finding is an inline reasoned allow.
//
// The checks are exposed individually (the fixture tests run them against
// deliberately drifted mini-trees) and collectively via run_checks().
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::lint {

class SourceTree;

/// SARIF-aligned severities.  The gate (non-zero exit, CI failure) triggers
/// on Error; Warning and Note surface in output and SARIF but a run with
/// only those still exits clean.
enum class Severity { Error, Warning, Note };

[[nodiscard]] std::string_view to_string(Severity severity) noexcept;

struct Diagnostic {
  std::string file;     ///< path relative to the repo root
  std::size_t line;     ///< 1-based; 0 means "whole file"
  std::string check;    ///< check name, e.g. "erd-table"
  std::string message;
  Severity severity = Severity::Error;

  /// "file:line: error: [check] message" (gcc-style, clickable in editors).
  [[nodiscard]] std::string to_string() const;
};

struct Report {
  std::vector<Diagnostic> diagnostics;

  /// Clean for gating purposes: no Error-severity diagnostics.
  [[nodiscard]] bool ok() const noexcept;
  void add(std::string file, std::size_t line, std::string check, std::string message,
           Severity severity = Severity::Error);
};

// ---------------------------------------------------------------------------
// Consistency checks (line/regex level)
// ---------------------------------------------------------------------------

/// ERD event-name table: renderer's erd_event_name() and the classifier's
/// erd_event_type() must be exact inverses (same names, same EventTypes).
void check_erd_tables(SourceTree& tree, Report& report);

/// kEventNames in event_type.cpp must list exactly the EventType enumerators
/// of event_type.hpp, in declaration order (to_string indexes by value).
void check_event_names(SourceTree& tree, Report& report);

/// Every payload template the renderer can emit per source (console,
/// controller) must have a matching classifier rule, and vice versa.
void check_payload_coverage(SourceTree& tree, Report& report);

/// FORMATS.md tables must match the code: console signature table rows are
/// real EventTypes covered by renderer+classifier, and the documented ERD
/// event-name vocabulary equals the renderer's table.
void check_formats_doc(SourceTree& tree, Report& report);

/// Corpus directory layout: the kFileNames table in src/loggen/corpus.cpp
/// (what write_corpus/ingest_files actually use on disk) must match the
/// file names documented in the FORMATS.md layout block, both directions.
void check_corpus_files(SourceTree& tree, Report& report);

/// Snapshot format version: the kSnapshotFormatVersion constant in
/// src/util/snapshot.hpp (what save/load actually stamp and accept) must
/// match the `Format version: **N**` line FORMATS.md promises for the
/// hpcfail.store.v1 container, so a layout bump cannot ship undocumented.
void check_snapshot_version(SourceTree& tree, Report& report);

/// Repo invariants: no rand()/srand()/time(NULL)/std::random_device/mt19937
/// in src/ (simulation must be deterministic through util::Rng).  Suppress a
/// line with "hpcfail-lint: allow(banned-pattern)".
void check_banned_patterns(SourceTree& tree, Report& report);

/// Header hygiene: every .hpp under src/ carries #pragma once near the top
/// and no header pollutes includers with `using namespace`.
void check_header_hygiene(SourceTree& tree, Report& report);

/// Figure/table benches (bench/fig*.cpp, bench/tab*.cpp) must route their
/// analysis through bench::run_pipeline/run_system or core::AnalysisEngine —
/// never a private analyze_failures() wiring, which drifts from the shared
/// pipeline.  Suppress a file with "hpcfail-lint: allow(bench-pipeline)"
/// (for benches that do no failure analysis at all).
void check_bench_pipeline(SourceTree& tree, Report& report);

/// Metric/span naming: every instrument name literal in src/, tools/ and
/// bench/ — registry calls (counter/gauge/histogram), TraceSpan/PhaseScope
/// constructions, and any string literal rooted at "hpcfail." — must follow
/// `hpcfail.<layer>.<snake_case>` (lowercase snake_case dot-segments, at
/// least two after the hpcfail root).  A literal completed at runtime
/// (followed by `+`) is validated as a prefix.  Suppress a line with
/// "hpcfail-lint: allow(metric-naming)".
void check_metric_naming(SourceTree& tree, Report& report);

/// Fault-site inventory: every HPCFAIL_FAULT_SITE("...") literal in src/,
/// tools/ and bench/ must be unique across the tree, follow the
/// `<layer>.<component>.<kind>` naming style (lowercase snake_case dot
/// segments, at least three), and appear in the kSites inventory of
/// src/util/fault.cpp — and every inventory entry must have a code use, so
/// the sweep harness (tests/faultinject_test.cpp) really enumerates every
/// injection point.  Suppress a line with
/// "hpcfail-lint: allow(fault-sites)".
void check_fault_sites(SourceTree& tree, Report& report);

// ---------------------------------------------------------------------------
// Semantic checks (token level, cxx_model.hpp)
//
// All the checks below honor `// hpcfail-lint: allow(<check>) -- <reason>` on the
// diagnosed line or the line above; the reason is mandatory (a reasonless
// allow leaves the finding standing and is itself diagnosed).
// ---------------------------------------------------------------------------

/// Lambdas handed to ThreadPool::submit() or parallel_for_ranges() must not
/// capture by reference: a queued task can outlive the enclosing scope (the
/// PR 1 use-after-scope, where an early rethrow left queued chunks holding a
/// dangling fn reference).  Scans src/, bench/, examples/, tools/.
void check_capture_lifetime(SourceTree& tree, Report& report);

/// Functions must not return std::span/std::string_view derived from locals
/// or by-value parameters, and call sites must not bind view-returning
/// members off temporary LogStore/SymbolTable expressions — both dangle (the
/// PR 5 hazard class introduced with the columnar accessors).
void check_dangling_view(SourceTree& tree, Report& report);

/// Public LogStore/AnalysisContext member functions must either guard
/// non-finalized state (require_finalized()/finalized() + std::logic_error
/// in their own body), belong to a class that fails loud at construction
/// (AnalysisContext's constructor throws on a non-finalized store), or carry
/// an explicit reasoned allow — so new accessors cannot silently read
/// unsorted records or stale indexes.
void check_finalize_protocol(SourceTree& tree, Report& report);

/// Concurrency and ownership primitives stay behind src/util: bare
/// std::thread/std::jthread/std::async construction, detach(), raw `new`
/// without an owning smart pointer, and const_cast are diagnosed everywhere
/// else (src/, bench/, examples/, tools/) — all concurrency goes through
/// the instrumented util::ThreadPool.
void check_raw_sync(SourceTree& tree, Report& report);

/// The ingest hot path (src/parsers/ and src/util/chunked_reader.cpp) must
/// scan bytes through util::scan — a raw std::string find('\n')/rfind('\n')
/// or a split_lines() call there silently reintroduces the byte-at-a-time
/// scanning and per-chunk line-vector allocation the SWAR/SIMD scan layer
/// removed.  Honors `// hpcfail-lint: allow(hot-path-scan) -- <reason>` for
/// cold paths that legitimately keep the simpler idiom.
void check_hot_path_scan(SourceTree& tree, Report& report);

/// The daemon's wire verbs (kVerbs in src/serve/protocol.cpp) and the
/// FORMATS.md "serve protocol" table must agree in both directions — same
/// verbs, same one-line summaries — so a verb cannot ship undocumented and
/// the doc cannot promise one the daemon does not answer.
void check_serve_protocol(SourceTree& tree, Report& report);

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Registry metadata: one entry per check, in execution order.  The
/// description doubles as the SARIF rule shortDescription.
struct CheckInfo {
  std::string name;
  Severity severity = Severity::Error;
  std::string description;
};

[[nodiscard]] const std::vector<CheckInfo>& all_checks();

/// All known check names, in execution order.
[[nodiscard]] const std::vector<std::string>& all_check_names();

/// Runs the named checks (all of them when `checks` is empty) against the
/// repo rooted at `root`.  Every check reads files through one shared
/// SourceTree, so the tree is read and lexed at most once per run.  Unknown
/// names produce a "usage" diagnostic.
[[nodiscard]] Report run_checks(const std::filesystem::path& root,
                                const std::vector<std::string>& checks = {});

/// run_checks() against an existing tree (exposed so callers that want
/// cache statistics — the CLI's --stats — can own the SourceTree).
[[nodiscard]] Report run_checks(SourceTree& tree,
                                const std::vector<std::string>& checks = {});

}  // namespace hpcfail::lint
