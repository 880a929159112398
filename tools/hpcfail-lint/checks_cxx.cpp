// Token-level semantic checks over the C++ sources (cxx_model.hpp lexer).
//
// Each check encodes one class of production bug this repo has actually
// shipped and fixed:
//   - capture-lifetime: PR 1's ThreadPool use-after-scope (queued chunks
//     holding a dangling reference after an early rethrow),
//   - dangling-view: the hazard class PR 5 introduced repo-wide when
//     LogStore/SymbolTable grew std::span/std::string_view accessors,
//   - raw-sync: concurrency/ownership primitives that bypass the
//     instrumented util::ThreadPool (whose metrics caught PR 4's ABA
//     use-after-free).
//
// The checks are deliberately token-level, not AST-level: they trade
// soundness for zero build dependencies and sub-second repo-wide runtime,
// and lean on mandatory reasoned suppressions for the (rare) safe cases.
#include <array>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cxx_model.hpp"
#include "lint.hpp"

namespace hpcfail::lint {

namespace {

using Tokens = std::vector<Token>;

constexpr std::array<const char*, 4> kScanDirs = {"src", "bench", "examples", "tools"};

/// The lint's own sources and fixtures quote violations in messages/tests.
[[nodiscard]] bool lint_own_source(const std::string& rel) {
  return rel.rfind("tools/hpcfail-lint/", 0) == 0;
}

[[nodiscard]] bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::Punct && t.text == text;
}

[[nodiscard]] bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::Identifier && t.text == text;
}

/// Skips a balanced `<...>` starting at tokens[i] == "<"; returns the index
/// one past the closing ">", or `i` unchanged when tokens[i] is not "<".
/// Gives up (returns end) if the run looks unbalanced — callers treat that
/// as "not a template argument list".
[[nodiscard]] std::size_t skip_angles(const Tokens& toks, std::size_t i) {
  if (i >= toks.size() || !is_punct(toks[i], "<")) return i;
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (is_punct(toks[j], "<")) ++depth;
    else if (is_punct(toks[j], ">")) {
      if (--depth == 0) return j + 1;
    } else if (is_punct(toks[j], ";") || is_punct(toks[j], "{")) {
      return toks.size();  // statement ended first: was a comparison
    }
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// Check: capture-lifetime
// ---------------------------------------------------------------------------

void scan_capture_lifetime(const SourceFile& file, Report& report) {
  const std::string check = "capture-lifetime";
  static const std::set<std::string_view> kSinks = {"submit", "parallel_for_ranges"};
  const Tokens& toks = file.tokens;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier || kSinks.count(toks[i].text) == 0) {
      continue;
    }
    if (!is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = matching_close(toks, i + 1);
    if (close >= toks.size()) continue;

    // Lambda intros inside the argument list: a '[' directly after '(' or
    // ',' (array subscripts follow an identifier/']'/')' instead).
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!is_punct(toks[j], "[")) continue;
      if (!(is_punct(toks[j - 1], "(") || is_punct(toks[j - 1], ","))) continue;
      const std::size_t intro_end = matching_close(toks, j);
      if (intro_end >= toks.size()) break;
      bool by_ref = false;
      for (std::size_t k = j + 1; k < intro_end && !by_ref; ++k) {
        by_ref = is_punct(toks[k], "&") || is_punct(toks[k], "&&");
      }
      if (by_ref) {
        emit(file, toks[j].line, check,
             "lambda passed to ThreadPool::" + std::string(toks[i].text) +
                 "() captures by reference; a queued task can outlive the "
                 "enclosing scope (the PR 1 use-after-scope class) — capture by "
                 "value/move or justify with allow(capture-lifetime)",
             report);
      }
      j = intro_end;
    }
    i = close;
  }
}

// ---------------------------------------------------------------------------
// Check: dangling-view
// ---------------------------------------------------------------------------

/// Owning local/parameter types whose views must not escape the function.
[[nodiscard]] bool owning_type(std::string_view name) {
  return name == "string" || name == "vector" || name == "ostringstream" ||
         name == "stringstream" || name == "array";
}

/// Records every `std::<owning-type> [<...>] NAME` declaration in
/// [begin, end) into `names` (covers both by-value parameters in a
/// signature range and locals in a body range).
void collect_owning_names(const Tokens& toks, std::size_t begin, std::size_t end,
                          std::set<std::string_view>& names) {
  for (std::size_t i = begin; i + 2 < end; ++i) {
    if (!is_ident(toks[i], "std") || !is_punct(toks[i + 1], "::")) continue;
    if (toks[i + 2].kind != Token::Kind::Identifier || !owning_type(toks[i + 2].text)) {
      continue;
    }
    std::size_t j = skip_angles(toks, i + 3);
    if (j == toks.size()) j = i + 3;
    if (j < end && toks[j].kind == Token::Kind::Identifier) {
      names.insert(toks[j].text);
    }
  }
}

void scan_view_returning_functions(const SourceFile& file, Report& report) {
  const std::string check = "dangling-view";
  const Tokens& toks = file.tokens;

  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    // `std::string_view` or `std::span<...>` in return-type position:
    // followed by a function name, a parameter list, then a body.
    if (!is_ident(toks[i], "std") || !is_punct(toks[i + 1], "::")) continue;
    const bool is_view = is_ident(toks[i + 2], "string_view");
    const bool is_span = is_ident(toks[i + 2], "span");
    if (!is_view && !is_span) continue;
    const std::string_view view_type = is_view ? "std::string_view" : "std::span";

    std::size_t j = i + 3;
    if (is_span) {
      const std::size_t after = skip_angles(toks, j);
      if (after == toks.size() || after == j) continue;  // span without args: not a type use
      j = after;
    }
    if (j >= toks.size() || toks[j].kind != Token::Kind::Identifier) continue;
    const std::string_view fn_name = toks[j].text;
    if (j + 1 >= toks.size() || !is_punct(toks[j + 1], "(")) continue;
    const std::size_t params_close = matching_close(toks, j + 1);
    if (params_close >= toks.size()) continue;

    // A definition follows: only const/noexcept/attributes may precede '{'.
    std::size_t body_open = toks.size();
    for (std::size_t k = params_close + 1; k < toks.size(); ++k) {
      if (is_punct(toks[k], "{")) {
        body_open = k;
        break;
      }
      const bool qualifier = is_ident(toks[k], "const") || is_ident(toks[k], "noexcept") ||
                             is_ident(toks[k], "override") || is_ident(toks[k], "final") ||
                             is_punct(toks[k], "[") || is_punct(toks[k], "]") ||
                             is_ident(toks[k], "nodiscard");
      if (!qualifier) break;
    }
    if (body_open == toks.size()) continue;
    const std::size_t body_close = matching_close(toks, body_open);
    if (body_close >= toks.size()) continue;

    std::set<std::string_view> owned;
    collect_owning_names(toks, j + 2, params_close, owned);       // by-value params
    collect_owning_names(toks, body_open + 1, body_close, owned);  // locals

    for (std::size_t k = body_open + 1; k + 1 < body_close; ++k) {
      if (!is_ident(toks[k], "return")) continue;
      const Token& ret = toks[k + 1];
      if (ret.kind != Token::Kind::Identifier || owned.count(ret.text) == 0) continue;
      const Token& next = toks[k + 2];
      if (is_punct(next, ";") || is_punct(next, ".") || is_punct(next, "[")) {
        emit(file, ret.line, check,
             "'" + std::string(fn_name) + "' returns a " + std::string(view_type) +
                 " derived from local/parameter '" + std::string(ret.text) +
                 "'; the view dangles when the function returns (the PR 5 "
                 "hazard class) — return an owning type or a view of "
                 "caller-owned data",
             report);
      }
    }
    i = body_open;  // resume after the signature; nested defs are rescanned anyway
  }
}

void scan_temporary_view_bindings(const SourceFile& file, Report& report) {
  const std::string check = "dangling-view";
  // Members of LogStore/SymbolTable returning views or references into the
  // object; calling one on a temporary dangles at the end of the statement.
  static const std::set<std::string_view> kViewMembers = {
      "view",        "detail",      "times",      "types",      "records",
      "symbols",     "range",       "node_range", "blade_range", "cabinet_range",
      "type_range",  "node_index",  "type_index", "nodes"};
  static const std::set<std::string_view> kClasses = {"LogStore", "SymbolTable"};
  const Tokens& toks = file.tokens;

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::Identifier || kClasses.count(toks[i].text) == 0) {
      continue;
    }
    // `LogStore(...)` / `LogStore{...}` temporary, or `LogStore::from_sorted(...)`.
    std::size_t open = toks.size();
    if (is_punct(toks[i + 1], "(") || is_punct(toks[i + 1], "{")) {
      // Skip constructor definitions (`LogStore::LogStore(`) and class
      // definitions (`class LogStore {`).
      if (i >= 2 && is_punct(toks[i - 1], "::") && toks[i - 2].text == toks[i].text) {
        continue;
      }
      if (i >= 1 && (is_ident(toks[i - 1], "class") || is_ident(toks[i - 1], "struct"))) {
        continue;
      }
      open = i + 1;
    } else if (i + 3 < toks.size() && is_punct(toks[i + 1], "::") &&
               is_ident(toks[i + 2], "from_sorted") && is_punct(toks[i + 3], "(")) {
      open = i + 3;
    } else {
      continue;
    }
    const std::size_t close = matching_close(toks, open);
    if (close + 3 >= toks.size()) continue;
    if (!is_punct(toks[close + 1], ".")) continue;
    const Token& member = toks[close + 2];
    if (member.kind != Token::Kind::Identifier || kViewMembers.count(member.text) == 0) {
      continue;
    }
    if (!is_punct(toks[close + 3], "(")) continue;
    emit(file, toks[close + 1].line, check,
         "binds '" + std::string(member.text) + "()' off a temporary " +
             std::string(toks[i].text) +
             "; the view dangles at the end of the full expression (the PR 5 "
             "hazard class) — name the " + std::string(toks[i].text) + " first",
         report);
  }
}

// ---------------------------------------------------------------------------
// Check: raw-sync
// ---------------------------------------------------------------------------

void scan_raw_sync(const SourceFile& file, Report& report) {
  const std::string check = "raw-sync";
  static const std::set<std::string_view> kBareThreading = {"thread", "jthread",
                                                            "async"};
  const Tokens& toks = file.tokens;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::Identifier) continue;

    if (t.text == "std" && i + 2 < toks.size() && is_punct(toks[i + 1], "::") &&
        toks[i + 2].kind == Token::Kind::Identifier &&
        kBareThreading.count(toks[i + 2].text) != 0) {
      emit(file, t.line, check,
           "bare std::" + std::string(toks[i + 2].text) +
               " outside src/util; route concurrency through util::ThreadPool "
               "(instrumented, exception-joining) or justify with allow(raw-sync)",
           report);
      i += 2;
      continue;
    }

    if (t.text == "detach" && i >= 1 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      emit(file, t.line, check,
           "detach() leaves a task running past its owner's lifetime with no "
           "join point; submit to util::ThreadPool and hold the future instead",
           report);
      continue;
    }

    if (t.text == "new") {
      emit(file, t.line, check,
           "raw `new` without an owning smart pointer; use std::make_unique "
           "(or a container) so ownership is explicit",
           report);
      continue;
    }

    if (t.text == "const_cast") {
      emit(file, t.line, check,
           "const_cast subverts the const contract of the API it touches; fix "
           "constness at the interface or take an explicit copy",
           report);
      continue;
    }
  }
}

}  // namespace

void check_capture_lifetime(SourceTree& tree, Report& report) {
  for (const char* top : kScanDirs) {
    for (const auto& rel : tree.files_under(top)) {
      if (lint_own_source(rel)) continue;
      const SourceFile* file = tree.source(rel);
      if (file != nullptr) scan_capture_lifetime(*file, report);
    }
  }
}

void check_dangling_view(SourceTree& tree, Report& report) {
  for (const char* top : kScanDirs) {
    for (const auto& rel : tree.files_under(top)) {
      if (lint_own_source(rel)) continue;
      const SourceFile* file = tree.source(rel);
      if (file == nullptr) continue;
      scan_view_returning_functions(*file, report);
      scan_temporary_view_bindings(*file, report);
    }
  }
}

void check_raw_sync(SourceTree& tree, Report& report) {
  for (const char* top : kScanDirs) {
    for (const auto& rel : tree.files_under(top)) {
      if (lint_own_source(rel)) continue;
      if (rel.rfind("src/util/", 0) == 0) continue;  // the primitives live here
      const SourceFile* file = tree.source(rel);
      if (file != nullptr) scan_raw_sync(*file, report);
    }
  }
}

}  // namespace hpcfail::lint
