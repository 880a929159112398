#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>

#include "cxx_model.hpp"

namespace hpcfail::lint {

namespace fs = std::filesystem;

std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::Warning: return "warning";
    case Severity::Note: return "note";
    case Severity::Error: break;
  }
  return "error";
}

std::string Diagnostic::to_string() const {
  std::ostringstream out;
  out << file << ':' << line << ": " << lint::to_string(severity) << ": [" << check
      << "] " << message;
  return out.str();
}

bool Report::ok() const noexcept {
  return std::none_of(diagnostics.begin(), diagnostics.end(),
                      [](const Diagnostic& d) { return d.severity == Severity::Error; });
}

void Report::add(std::string file, std::size_t line, std::string check,
                 std::string message, Severity severity) {
  diagnostics.push_back(Diagnostic{std::move(file), line, std::move(check),
                                   std::move(message), severity});
}

namespace {

// ---------------------------------------------------------------------------
// Source-file plumbing (all reads go through the shared SourceTree cache)
// ---------------------------------------------------------------------------

const SourceFile* load(SourceTree& tree, const std::string& rel_path,
                       const std::string& check, Report& report) {
  const SourceFile* f = tree.source(rel_path);
  if (f == nullptr) {
    report.add(rel_path, 0, check, "cannot read file (tree layout drifted?)");
  }
  return f;
}

struct LineRange {
  std::size_t begin = 0;  ///< 1-based first line inside the braces
  std::size_t end = 0;    ///< 1-based line of the closing brace (inclusive)
};

/// Brace-balanced body of the first function/enum whose defining line
/// contains `marker`.  Line-oriented: good enough for the table-shaped code
/// this lint inspects (no braces inside string literals there).
std::optional<LineRange> body_of(const SourceFile& f, std::string_view marker) {
  std::size_t i = 0;
  while (i < f.lines.size() && f.lines[i].find(marker) == std::string::npos) ++i;
  if (i == f.lines.size()) return std::nullopt;
  int depth = 0;
  bool entered = false;
  for (std::size_t j = i; j < f.lines.size(); ++j) {
    for (const char c : f.lines[j]) {
      if (c == '{') {
        ++depth;
        entered = true;
      } else if (c == '}') {
        --depth;
        if (entered && depth == 0) return LineRange{i + 1, j + 1};
      }
    }
  }
  return std::nullopt;
}

struct TableEntry {
  std::string key;
  std::string value;
  std::size_t line = 0;
};

/// All single-line regex matches in [range.begin, range.end]; group 1 -> key,
/// group 2 (if present) -> value.
std::vector<TableEntry> scan(const SourceFile& f, const LineRange& range,
                             const std::regex& re) {
  std::vector<TableEntry> out;
  for (std::size_t n = range.begin; n <= range.end && n <= f.lines.size(); ++n) {
    const std::string& text = f.lines[n - 1];
    for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
         it != std::sregex_iterator(); ++it) {
      TableEntry e;
      e.key = (*it)[1].str();
      if (it->size() > 2 && (*it)[2].matched) e.value = (*it)[2].str();
      e.line = n;
      out.push_back(std::move(e));
    }
  }
  return out;
}

LineRange whole_file(const SourceFile& f) { return LineRange{1, f.lines.size()}; }

/// The Classified{EventType::X} rule constructions reachable from
/// `classify_fn`.  The single-pass SignatureSet classifier keeps the public
/// classify_* function as a thin wrapper and builds every Classified inside
/// a resolve_* helper, so when the wrapper body holds no rules the scan
/// follows the resolver body instead (cascade-style trees keep everything
/// in the wrapper and never reach the fallback).
std::vector<TableEntry> classified_rules(const SourceFile& classifier,
                                         std::string_view classify_fn,
                                         std::string_view resolve_fn) {
  static const std::regex classified_re(R"(Classified\{EventType::(\w+))");
  if (const auto body = body_of(classifier, classify_fn)) {
    auto rules = scan(classifier, *body, classified_re);
    if (!rules.empty()) return rules;
  }
  if (const auto body = body_of(classifier, resolve_fn)) {
    return scan(classifier, *body, classified_re);
  }
  return {};
}

// Repo-relative paths of the cross-checked tables.  Fixture trees used by
// the lint's own tests mirror this layout.
constexpr const char* kRendererCpp = "src/loggen/renderer.cpp";
constexpr const char* kClassifierCpp = "src/parsers/line_classifier.cpp";
constexpr const char* kEventTypeHpp = "src/logmodel/event_type.hpp";
constexpr const char* kEventTypeCpp = "src/logmodel/event_type.cpp";
constexpr const char* kCorpusCpp = "src/loggen/corpus.cpp";
constexpr const char* kSnapshotHpp = "src/util/snapshot.hpp";
constexpr const char* kServeProtocolCpp = "src/serve/protocol.cpp";
constexpr const char* kFormatsMd = "FORMATS.md";

/// EventType enumerators of event_type.hpp, in declaration order.
std::vector<TableEntry> enum_entries(SourceTree& tree, const std::string& check,
                                     Report& report) {
  const auto* hpp = load(tree, kEventTypeHpp, check, report);
  if (hpp == nullptr) return {};
  const auto body = body_of(*hpp, "enum class EventType");
  if (!body) {
    report.add(kEventTypeHpp, 0, check, "no `enum class EventType` block found");
    return {};
  }
  // Enumerators start with an uppercase letter and end with ','; this skips
  // comments, blank lines and the trailing kCount sentinel.
  static const std::regex re(R"(^\s*([A-Z]\w*)\s*,)");
  return scan(*hpp, *body, re);
}

// ---------------------------------------------------------------------------
// Pairwise table comparison
// ---------------------------------------------------------------------------

/// Reports entries of `ours` whose key is absent from `theirs`, or mapped to
/// a different value.  `direction` phrases the message.
void cross_check(const std::vector<TableEntry>& ours, const std::string& our_file,
                 const std::vector<TableEntry>& theirs, const std::string& their_file,
                 const std::string& check, const std::string& direction, Report& report) {
  std::map<std::string, std::string> other;
  for (const auto& e : theirs) other.emplace(e.key, e.value);
  for (const auto& e : ours) {
    const auto it = other.find(e.key);
    if (it == other.end()) {
      report.add(our_file, e.line, check,
                 "'" + e.key + "' " + direction + " has no counterpart in " + their_file);
    } else if (!e.value.empty() && !it->second.empty() && it->second != e.value) {
      report.add(our_file, e.line, check,
                 "'" + e.key + "' maps to " + e.value + " here but to " + it->second +
                     " in " + their_file);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Check: payload-coverage
// ---------------------------------------------------------------------------

namespace {

void coverage_pair(const SourceFile& renderer, std::string_view render_fn,
                   const SourceFile& classifier, std::string_view classify_fn,
                   std::string_view resolve_fn, const std::string& check,
                   Report& report) {
  const auto rbody = body_of(renderer, render_fn);
  const auto cbody = body_of(classifier, classify_fn);
  if (!rbody) {
    report.add(renderer.rel_path, 0, check,
               "no " + std::string(render_fn) + " definition found");
  }
  if (!cbody) {
    report.add(classifier.rel_path, 0, check,
               "no " + std::string(classify_fn) + " definition found");
  }
  if (!rbody || !cbody) return;

  static const std::regex case_re(R"(case\s+EventType::(\w+)\s*:)");
  const auto rendered = scan(renderer, *rbody, case_re);
  const auto classified = classified_rules(classifier, classify_fn, resolve_fn);

  std::set<std::string> classified_set;
  for (const auto& e : classified) classified_set.insert(e.key);
  std::set<std::string> rendered_set;
  for (const auto& e : rendered) rendered_set.insert(e.key);

  for (const auto& e : rendered) {
    if (classified_set.count(e.key) == 0) {
      report.add(renderer.rel_path, e.line, check,
                 std::string(render_fn) + " renders EventType::" + e.key + " but " +
                     std::string(classify_fn) + " (" + classifier.rel_path +
                     ") never classifies it: emitted lines would be skipped on parse");
    }
  }
  for (const auto& e : classified) {
    if (rendered_set.count(e.key) == 0) {
      report.add(classifier.rel_path, e.line, check,
                 std::string(classify_fn) + " recovers EventType::" + e.key + " but " +
                     std::string(render_fn) + " (" + renderer.rel_path +
                     ") has no template for it: rule is dead or the emitter drifted");
    }
  }
}

}  // namespace

void check_payload_coverage(SourceTree& tree, Report& report) {
  const std::string check = "payload-coverage";
  const auto* renderer = load(tree, kRendererCpp, check, report);
  const auto* classifier = load(tree, kClassifierCpp, check, report);
  if (renderer == nullptr || classifier == nullptr) return;

  coverage_pair(*renderer, "internal_payload(", *classifier, "classify_kernel_payload(",
                "resolve_kernel(", check, report);
  coverage_pair(*renderer, "controller_payload(", *classifier,
                "classify_controller_payload(", "resolve_controller(", check, report);
}

// ---------------------------------------------------------------------------
// Check: formats-doc
// ---------------------------------------------------------------------------

void check_formats_doc(SourceTree& tree, Report& report) {
  const std::string check = "formats-doc";
  const auto* doc = load(tree, kFormatsMd, check, report);
  const auto* renderer = load(tree, kRendererCpp, check, report);
  const auto* classifier = load(tree, kClassifierCpp, check, report);
  if (doc == nullptr || renderer == nullptr || classifier == nullptr) return;

  std::set<std::string> enum_names;
  for (const auto& e : enum_entries(tree, check, report)) enum_names.insert(e.key);

  // --- console signature table: | EventName | `signature` | -----------------
  static const std::regex row_re(R"(^\|\s*([A-Z]\w+)\s*\|.*`)");
  const auto rows = scan(*doc, whole_file(*doc), row_re);

  const auto ibody = body_of(*renderer, "internal_payload(");
  const auto kbody = body_of(*classifier, "classify_kernel_payload(");
  std::set<std::string> rendered_set;
  std::set<std::string> classified_set;
  std::vector<TableEntry> rendered;
  if (ibody) {
    static const std::regex case_re(R"(case\s+EventType::(\w+)\s*:)");
    rendered = scan(*renderer, *ibody, case_re);
    for (const auto& e : rendered) rendered_set.insert(e.key);
  }
  if (kbody) {
    for (const auto& e :
         classified_rules(*classifier, "classify_kernel_payload(", "resolve_kernel(")) {
      classified_set.insert(e.key);
    }
  }

  std::set<std::string> documented;
  for (const auto& row : rows) {
    documented.insert(row.key);
    if (!enum_names.empty() && enum_names.count(row.key) == 0) {
      report.add(kFormatsMd, row.line, check,
                 "console table documents '" + row.key + "' which is not an EventType");
      continue;
    }
    if (ibody && rendered_set.count(row.key) == 0) {
      report.add(kFormatsMd, row.line, check,
                 "console table documents " + row.key + " but " + kRendererCpp +
                     " internal_payload() has no template for it");
    }
    if (kbody && classified_set.count(row.key) == 0) {
      report.add(kFormatsMd, row.line, check,
                 "console table documents " + row.key + " but " + kClassifierCpp +
                     " classify_kernel_payload() never produces it");
    }
  }
  if (!rows.empty()) {
    for (const auto& e : rendered) {
      if (documented.count(e.key) == 0) {
        report.add(kRendererCpp, e.line, check,
                   "internal_payload() renders EventType::" + e.key +
                       " but the FORMATS.md console table does not document it");
      }
    }
  }

  // --- ERD vocabulary: backticked `ec_*` names in the "## erd" section ------
  std::size_t erd_begin = 0;
  std::size_t erd_end = doc->lines.size();
  for (std::size_t i = 0; i < doc->lines.size(); ++i) {
    if (erd_begin == 0 && doc->lines[i].rfind("## erd", 0) == 0) {
      erd_begin = i + 1;
    } else if (erd_begin != 0 && doc->lines[i].rfind("## ", 0) == 0) {
      erd_end = i;
      break;
    }
  }
  const auto* event_cpp = load(tree, kEventTypeCpp, check, report);
  const auto ebody = event_cpp ? body_of(*event_cpp, "kErdEvents") : std::nullopt;
  if (erd_begin != 0 && ebody) {
    static const std::regex doc_name_re(R"(`(ec_\w+)`)");
    const auto doc_names = scan(*doc, LineRange{erd_begin, erd_end}, doc_name_re);
    // {EventType::NodeHeartbeatFault, "ec_node_failed"},
    static const std::regex row_rex(R"(\{EventType::(\w+),\s*\"([a-z0-9_]+)\"\})");
    const auto table = scan(*event_cpp, *ebody, row_rex);
    std::set<std::string> in_code;
    for (const auto& e : table) in_code.insert(e.value);
    std::set<std::string> in_doc;
    for (const auto& e : doc_names) in_doc.insert(e.key);
    for (const auto& e : doc_names) {
      if (in_code.count(e.key) == 0) {
        report.add(kFormatsMd, e.line, check,
                   "erd section documents event name '" + e.key + "' which " +
                       kEventTypeCpp + " kErdEvents does not list");
      }
    }
    for (const auto& e : table) {
      if (in_doc.count(e.value) == 0) {
        report.add(kEventTypeCpp, e.line, check,
                   "ERD event name '" + e.value +
                       "' is not documented in the FORMATS.md erd section");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check: corpus-files
// ---------------------------------------------------------------------------

void check_corpus_files(SourceTree& tree, Report& report) {
  const std::string check = "corpus-files";
  const auto* corpus = load(tree, kCorpusCpp, check, report);
  const auto* doc = load(tree, kFormatsMd, check, report);
  if (corpus == nullptr || doc == nullptr) return;

  const auto body = body_of(*corpus, "kFileNames");
  if (!body) {
    report.add(kCorpusCpp, 0, check, "no kFileNames array found");
    return;
  }
  static const std::regex code_re(R"#("([A-Za-z0-9._-]+\.log)")#");
  const auto code = scan(*corpus, *body, code_re);
  if (code.empty()) {
    report.add(kCorpusCpp, body->begin, check, "kFileNames lists no .log file names");
  }

  // The documented layout is the fenced block whose first entry is
  // manifest.txt; entries are `<name>.log` at the start of a line.
  std::size_t layout_begin = 0;
  std::size_t layout_end = 0;
  for (std::size_t i = 0; i < doc->lines.size(); ++i) {
    if (layout_begin == 0 && doc->lines[i].rfind("manifest.txt", 0) == 0) {
      layout_begin = i + 1;
    } else if (layout_begin != 0 && doc->lines[i].rfind("```", 0) == 0) {
      layout_end = i + 1;
      break;
    }
  }
  if (layout_begin == 0) {
    report.add(kFormatsMd, 0, check,
               "no corpus layout block found (fenced block starting with manifest.txt)");
    return;
  }
  if (layout_end == 0) layout_end = doc->lines.size();
  static const std::regex doc_re(R"(^([A-Za-z0-9._-]+\.log)\b)");
  const auto documented = scan(*doc, LineRange{layout_begin, layout_end}, doc_re);
  if (documented.empty()) {
    report.add(kFormatsMd, layout_begin, check,
               "corpus layout block documents no .log file names");
  }

  cross_check(code, kCorpusCpp, documented, kFormatsMd, check, "(corpus file name)",
              report);
  cross_check(documented, kFormatsMd, code, kCorpusCpp, check, "(documented corpus file)",
              report);
}

// ---------------------------------------------------------------------------
// Check: snapshot-version
// ---------------------------------------------------------------------------

void check_snapshot_version(SourceTree& tree, Report& report) {
  const std::string check = "snapshot-version";
  const auto* header = load(tree, kSnapshotHpp, check, report);
  const auto* doc = load(tree, kFormatsMd, check, report);
  if (header == nullptr || doc == nullptr) return;

  static const std::regex code_re(R"(kSnapshotFormatVersion\s*=\s*(\d+)\s*;)");
  const auto code = scan(*header, whole_file(*header), code_re);
  if (code.empty()) {
    report.add(kSnapshotHpp, 0, check,
               "no `kSnapshotFormatVersion = N;` definition found");
    return;
  }
  if (code.size() > 1) {
    report.add(kSnapshotHpp, code[1].line, check,
               "kSnapshotFormatVersion is defined more than once");
  }

  static const std::regex doc_re(R"(^Format version:\s*\*\*(\d+)\*\*)");
  const auto documented = scan(*doc, whole_file(*doc), doc_re);
  if (documented.empty()) {
    report.add(kFormatsMd, 0, check,
               "no `Format version: **N**` line found; the hpcfail.store.v1 "
               "section must document the version kSnapshotFormatVersion pins");
    return;
  }
  if (documented.size() > 1) {
    report.add(kFormatsMd, documented[1].line, check,
               "multiple `Format version:` lines; FORMATS.md must pin exactly one");
  }
  if (documented.front().key != code.front().key) {
    report.add(kFormatsMd, documented.front().line, check,
               "documented snapshot format version **" + documented.front().key +
                   "** does not match kSnapshotFormatVersion = " + code.front().key +
                   " in " + kSnapshotHpp +
                   "; bump the doc (and its layout section) with the constant");
  }
}

// ---------------------------------------------------------------------------
// Check: serve-protocol
// ---------------------------------------------------------------------------

void check_serve_protocol(SourceTree& tree, Report& report) {
  const std::string check = "serve-protocol";
  const auto* protocol = load(tree, kServeProtocolCpp, check, report);
  const auto* doc = load(tree, kFormatsMd, check, report);
  if (protocol == nullptr || doc == nullptr) return;

  const auto body = body_of(*protocol, "kVerbs[]");
  if (!body) {
    report.add(kServeProtocolCpp, 0, check, "no kVerbs array found");
    return;
  }
  // {Verb::Ping, "ping", "liveness probe, answers pong"},
  static const std::regex code_re(R"#(\{Verb::\w+,\s*"([a-z_]+)",\s*"([^"]*)"\})#");
  const auto code = scan(*protocol, *body, code_re);
  if (code.empty()) {
    report.add(kServeProtocolCpp, body->begin, check, "kVerbs lists no verbs");
  }

  // The documented table lives under the `## serve protocol` heading, one
  // row per verb, and runs until the next section heading.
  std::size_t section_begin = 0;
  std::size_t section_end = 0;
  for (std::size_t i = 0; i < doc->lines.size(); ++i) {
    if (section_begin == 0 && doc->lines[i].rfind("## serve protocol", 0) == 0) {
      section_begin = i + 1;
    } else if (section_begin != 0 && doc->lines[i].rfind("## ", 0) == 0) {
      section_end = i;
      break;
    }
  }
  if (section_begin == 0) {
    report.add(kFormatsMd, 0, check,
               "no `## serve protocol` section found; the daemon's verb table "
               "must be documented");
    return;
  }
  if (section_end == 0) section_end = doc->lines.size();
  static const std::regex doc_re(R"(^\| `([a-z_]+)` \| ([^|]*[^| ]) \|\s*$)");
  const auto documented = scan(*doc, LineRange{section_begin, section_end}, doc_re);
  if (documented.empty()) {
    report.add(kFormatsMd, section_begin, check,
               "serve protocol section documents no verb rows");
  }

  cross_check(code, kServeProtocolCpp, documented, kFormatsMd, check,
              "(serve verb)", report);
  cross_check(documented, kFormatsMd, code, kServeProtocolCpp, check,
              "(documented verb)", report);
}

// ---------------------------------------------------------------------------
// Check: hot-path-scan
// ---------------------------------------------------------------------------

void check_hot_path_scan(SourceTree& tree, Report& report) {
  const std::string check = "hot-path-scan";
  // The streaming ingest earns its MB/s from the util::scan kernels; these
  // two idioms are exactly what the SWAR/SIMD rewrite removed from the hot
  // path, and both creep back easily because they are the "natural" C++.
  static const std::regex raw_find(R"(\.\s*r?find(_first_of|_last_of)?\s*\(\s*(['"])\\n)");
  static const std::regex split_call(R"(\bsplit_lines\s*\()");

  std::vector<std::string> files;
  if (tree.exists("src/parsers")) {
    const auto& under = tree.files_under("src/parsers");
    files.insert(files.end(), under.begin(), under.end());
  } else {
    report.add("src/parsers", 0, check, "no src/parsers directory under repo root");
  }
  // The chunked reader is the one util file on the per-byte path; util/scan
  // itself is exempt by construction (it IS the sanctioned implementation).
  if (tree.exists("src/util/chunked_reader.cpp")) {
    files.push_back("src/util/chunked_reader.cpp");
  }

  for (const auto& rel : files) {
    const auto* file = load(tree, rel, check, report);
    if (file == nullptr) continue;
    for (std::size_t n = 1; n <= file->lines.size(); ++n) {
      const std::string& text = file->lines[n - 1];
      if (std::regex_search(text, raw_find)) {
        emit(*file, n, check,
             "raw newline scan on the ingest hot path; use util::scan::find_byte/"
             "rfind_byte (SWAR/SIMD dispatched) or util::scan::LineCursor",
             report);
      }
      if (std::regex_search(text, split_call)) {
        emit(*file, n, check,
             "split_lines allocates a per-line vector on the ingest hot path; "
             "iterate with util::scan::LineCursor (zero allocation)",
             report);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check: banned-pattern
// ---------------------------------------------------------------------------

void check_banned_patterns(SourceTree& tree, Report& report) {
  const std::string check = "banned-pattern";
  struct Banned {
    std::regex re;
    std::string why;
  };
  // The simulator must be bit-reproducible across machines and runs; any
  // libc/libstdc++ RNG or wall-clock seeding silently breaks golden tests.
  static const std::vector<Banned> banned = {
      {std::regex(R"(\b(s?rand)\s*\()"),
       "libc rand()/srand() is banned; use util::Rng (deterministic xoshiro256**)"},
      {std::regex(R"(\btime\s*\(\s*(NULL|nullptr|0)\s*\))"),
       "wall-clock seeding is banned; simulation time comes from the scenario config"},
      {std::regex(R"(std::random_device)"),
       "std::random_device is banned; seeds must be explicit for reproducibility"},
      {std::regex(R"(\b(mt19937(_64)?|default_random_engine|minstd_rand0?)\b)"),
       "std <random> engines are banned; use util::Rng so sequences are portable"},
      {std::regex(R"(\brandom_shuffle\b)"),
       "random_shuffle is banned; use util::Rng::shuffle"},
  };

  if (!tree.exists("src")) {
    report.add("src", 0, check, "no src/ directory under repo root");
    return;
  }
  for (const auto& rel : tree.files_under("src")) {
    const auto* file = load(tree, rel, check, report);
    if (file == nullptr) continue;
    for (std::size_t n = 1; n <= file->lines.size(); ++n) {
      const std::string& text = file->lines[n - 1];
      for (const auto& b : banned) {
        if (std::regex_search(text, b.re)) emit(*file, n, check, b.why, report);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check: header-hygiene
// ---------------------------------------------------------------------------

void check_header_hygiene(SourceTree& tree, Report& report) {
  const std::string check = "header-hygiene";
  if (!tree.exists("src")) {
    report.add("src", 0, check, "no src/ directory under repo root");
    return;
  }

  static const std::regex using_ns(R"(^\s*using\s+namespace\b)");
  for (const auto& rel : tree.files_under("src")) {
    if (rel.size() < 4 || rel.compare(rel.size() - 4, 4, ".hpp") != 0) continue;
    const auto* file = load(tree, rel, check, report);
    if (file == nullptr) continue;
    bool pragma_once = false;
    const std::size_t probe = std::min<std::size_t>(file->lines.size(), 30);
    for (std::size_t n = 0; n < probe; ++n) {
      if (file->lines[n].rfind("#pragma once", 0) == 0) {
        pragma_once = true;
        break;
      }
    }
    if (!pragma_once) {
      report.add(rel, 1, check, "header lacks #pragma once in its first 30 lines");
    }
    for (std::size_t n = 1; n <= file->lines.size(); ++n) {
      if (std::regex_search(file->lines[n - 1], using_ns)) {
        report.add(rel, n, check,
                   "`using namespace` in a header leaks into every includer");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check: bench-pipeline
// ---------------------------------------------------------------------------

void check_bench_pipeline(SourceTree& tree, Report& report) {
  const std::string check = "bench-pipeline";
  if (!tree.exists("bench")) {
    report.add("bench", 0, check, "no bench/ directory under repo root");
    return;
  }

  static const std::regex pipeline_use(
      R"(\b(run_pipeline|run_system)\s*\(|\bAnalysisEngine\b)");
  for (const auto& rel : tree.files_under("bench")) {
    const std::string name = fs::path(rel).filename().string();
    if (fs::path(rel).extension() != ".cpp") continue;
    if (name.rfind("fig", 0) != 0 && name.rfind("tab", 0) != 0) continue;
    const auto* file = load(tree, rel, check, report);
    if (file == nullptr) continue;
    const bool uses_pipeline =
        std::any_of(file->lines.begin(), file->lines.end(),
                    [](const std::string& text) { return std::regex_search(text, pipeline_use); });
    if (!uses_pipeline) {
      emit_file_scoped(*file, 1, check,
                       "figure bench never uses bench::run_pipeline/run_system or "
                       "core::AnalysisEngine; hand-wired analysis drifts from the shared "
                       "pipeline",
                       report);
    }
  }
}

// ---------------------------------------------------------------------------
// Check: metric-naming
// ---------------------------------------------------------------------------

void check_metric_naming(SourceTree& tree, Report& report) {
  const std::string check = "metric-naming";
  // A complete instrument name: hpcfail root plus at least two lowercase
  // snake_case dot-segments (hpcfail.<layer>.<name>...).
  static const std::regex full_name(R"(^hpcfail(\.[a-z0-9]+(_[a-z0-9]+)*){2,}$)");
  // A literal completed at runtime ("hpcfail.pool.worker" + i + ...): every
  // segment present in the literal must already be lowercase snake_case, and
  // it may end on a dangling '.' or '_' that the runtime suffix continues.
  static const std::regex prefix_name(R"(^hpcfail(\.[a-z0-9]+(_[a-z0-9]+)*)+[._]?$)");
  // Any string literal rooted at "hpcfail."; capture 2 is a trailing '+'
  // that marks the literal as a runtime-completed prefix.  Literals with
  // escapes (e.g. names embedded in hand-written JSON) are skipped — names
  // never contain backslashes.
  static const std::regex rooted_literal(R"#("(hpcfail\.[^"\\]*)"\s*(\+)?)#");
  // Instrument call sites, so names that forgot the hpcfail root are still
  // caught: registry lookups and span constructions taking a name literal.
  static const std::regex call_site(
      R"#(\b(?:counter|gauge|histogram|TraceSpan(?:\s+\w+)?|PhaseScope(?:\s+\w+)?)\s*\(\s*"([^"\\]+)")#");

  if (!tree.exists("src")) {
    report.add("src", 0, check, "no src/ directory under repo root");
    return;
  }
  for (const char* top : {"src", "tools", "bench"}) {
    for (const auto& rel : tree.files_under(top)) {
      // The linter's own sources quote drifted names in messages and tests.
      if (rel.rfind("tools/hpcfail-lint/", 0) == 0) continue;
      const auto* file = load(tree, rel, check, report);
      if (file == nullptr) continue;
      for (std::size_t n = 1; n <= file->lines.size(); ++n) {
        const std::string& text = file->lines[n - 1];

        // Collect each candidate name once per line; a name seen with a
        // trailing '+' anywhere on the line is validated as a prefix.
        std::map<std::string, bool> names;  // name -> is_prefix
        for (auto it = std::sregex_iterator(text.begin(), text.end(), rooted_literal);
             it != std::sregex_iterator(); ++it) {
          bool& is_prefix = names[(*it)[1].str()];
          is_prefix = is_prefix || (*it)[2].matched;
        }
        for (auto it = std::sregex_iterator(text.begin(), text.end(), call_site);
             it != std::sregex_iterator(); ++it) {
          names.emplace((*it)[1].str(), false);
        }

        for (const auto& [name, is_prefix] : names) {
          if (name.rfind("hpcfail.", 0) != 0) {
            emit(*file, n, check,
                 "instrument name '" + name +
                     "' is not rooted under 'hpcfail.'; metric and span names "
                     "follow hpcfail.<layer>.<snake_case>",
                 report);
          } else if (is_prefix) {
            std::string head = name;
            if (!head.empty() && (head.back() == '.' || head.back() == '_')) head.pop_back();
            if (!std::regex_match(head, prefix_name)) {
              emit(*file, n, check,
                   "metric/span name prefix '" + name +
                       "' drifts from hpcfail.<layer>.<snake_case> (complete "
                       "segments before the runtime suffix must be lowercase "
                       "snake_case)",
                   report);
            }
          } else if (!std::regex_match(name, full_name)) {
            emit(*file, n, check,
                 "metric/span name '" + name +
                     "' drifts from hpcfail.<layer>.<snake_case> (lowercase "
                     "snake_case segments, at least two after 'hpcfail')",
                 report);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace {

struct CheckDef {
  CheckInfo info;
  void (*fn)(SourceTree&, Report&);
};

const std::vector<CheckDef>& registry() {
  static const std::vector<CheckDef> defs = {
      {{"payload-coverage", Severity::Error,
        "Every rendered payload template needs a matching classifier rule and vice "
        "versa"},
       &check_payload_coverage},
      {{"formats-doc", Severity::Error,
        "FORMATS.md tables must match the emitter and parser tables in code"},
       &check_formats_doc},
      {{"corpus-files", Severity::Error,
        "Corpus file names in code and the FORMATS.md layout block must agree"},
       &check_corpus_files},
      {{"snapshot-version", Severity::Error,
        "kSnapshotFormatVersion and the FORMATS.md `Format version` line must "
        "agree"},
       &check_snapshot_version},
      {{"banned-pattern", Severity::Error,
        "No nondeterministic RNG or wall-clock seeding outside util::Rng"},
       &check_banned_patterns},
      {{"header-hygiene", Severity::Error,
        "Headers carry #pragma once and never `using namespace` at top level"},
       &check_header_hygiene},
      {{"bench-pipeline", Severity::Error,
        "Figure/table benches route analysis through run_pipeline/AnalysisEngine"},
       &check_bench_pipeline},
      {{"metric-naming", Severity::Error,
        "Instrument names follow hpcfail.<layer>.<snake_case>"},
       &check_metric_naming},
      {{"capture-lifetime", Severity::Error,
        "Lambdas queued on the ThreadPool must not capture by reference (PR 1 "
        "use-after-scope class)"},
       &check_capture_lifetime},
      {{"dangling-view", Severity::Error,
        "No std::span/std::string_view derived from locals or temporaries (PR 5 "
        "dangling-view class)"},
       &check_dangling_view},
      {{"raw-sync", Severity::Error,
        "No bare std::thread/detach()/raw new/const_cast outside src/util; "
        "concurrency goes through util::ThreadPool"},
       &check_raw_sync},
      {{"hot-path-scan", Severity::Error,
        "Ingest hot-path files scan bytes through util::scan, never raw "
        "find('\\n') or per-chunk split_lines vectors"},
       &check_hot_path_scan},
      {{"serve-protocol", Severity::Error,
        "The serve verb table (kVerbs) and the FORMATS.md serve protocol "
        "section must agree verb-for-verb, summary-for-summary"},
       &check_serve_protocol},
  };
  return defs;
}

}  // namespace

const std::vector<CheckInfo>& all_checks() {
  static const std::vector<CheckInfo> infos = [] {
    std::vector<CheckInfo> v;
    v.reserve(registry().size());
    for (const auto& def : registry()) v.push_back(def.info);
    return v;
  }();
  return infos;
}

const std::vector<std::string>& all_check_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    v.reserve(registry().size());
    for (const auto& def : registry()) v.push_back(def.info.name);
    return v;
  }();
  return names;
}

Report run_checks(SourceTree& tree, const std::vector<std::string>& checks) {
  Report report;
  const std::vector<std::string>& selected = checks.empty() ? all_check_names() : checks;
  for (const auto& name : selected) {
    const auto it =
        std::find_if(registry().begin(), registry().end(),
                     [&](const CheckDef& def) { return def.info.name == name; });
    if (it == registry().end()) {
      report.add("<args>", 0, "usage", "unknown check '" + name + "'");
      continue;
    }
    it->fn(tree, report);
  }
  return report;
}

Report run_checks(const fs::path& root, const std::vector<std::string>& checks) {
  SourceTree tree(root);
  return run_checks(tree, checks);
}

}  // namespace hpcfail::lint
