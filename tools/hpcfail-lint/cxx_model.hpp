// Shared C++ source model for hpcfail-lint.
//
// The doc-consistency checks of PR 1 worked line-by-line with regexes; the
// semantic checks added since (capture-lifetime, dangling-view, raw-sync)
// need to know what regexes cannot: whether a `&` sits inside a lambda
// capture list or an `if`, whether `new` appears in code or in a comment
// quoting dmesg, where a function body begins and ends.
// This header provides the shared substrate:
//
//   - Lexer: a tolerant C++ tokenizer (line comments, block comments,
//     ordinary/raw string literals, char literals, numbers with digit
//     separators, preprocessor directives with continuations) producing a
//     token stream with 1-based line numbers.
//   - SourceFile: one loaded file — raw text, split lines (for the legacy
//     regex checks), tokens, and parsed inline suppressions.
//   - SourceTree: the per-run cache.  Every check (legacy and token-level)
//     loads files through it, so each file is read and lexed at most once
//     per lint run no matter how many checks look at it.
//   - Suppressions: `// hpcfail-lint: allow(<check>) -- <reason>` parsed
//     from comments.  Every check that can be suppressed emits through
//     emit(), which honors a reasoned allow on the diagnostic's line (or
//     the line above) and rejects a reasonless one: the finding stands and
//     an extra missing-reason diagnostic is added, so suppressions are
//     auditable.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace hpcfail::lint {

struct Token {
  enum class Kind {
    Identifier,    ///< identifiers and keywords (the lexer does not distinguish)
    Number,        ///< numeric literal, digit separators included
    String,        ///< ordinary string literal, quotes included
    RawString,     ///< raw string literal, full R"delim(...)delim" lexeme
    CharLit,       ///< character literal
    Punct,         ///< punctuation; "::", "->", "&&", "||" fuse to one token
    Preprocessor,  ///< a whole directive line (continuations folded in)
  };

  Kind kind = Kind::Punct;
  std::string_view text;  ///< view into SourceFile::content
  std::size_t line = 0;   ///< 1-based line of the token's first character
};

/// One `hpcfail-lint: allow(<check>)` comment.  `reason` is what follows
/// `--`, trimmed; empty means the suppression is incomplete.
struct Suppression {
  std::size_t line = 0;
  std::string check;
  std::string reason;
};

/// A loaded source file.  `lines[n-1]` is line n; token text views into
/// `content`, so a SourceFile must not be moved while tokens are in use
/// (SourceTree hands out stable pointers).
struct SourceFile {
  std::string rel_path;
  std::string content;
  std::vector<std::string> lines;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
};

/// Tokenizes `content` into `tokens` and harvests suppressions from the
/// comments.  Tolerant by construction: malformed input (unterminated
/// strings, stray bytes, non-C++ files like FORMATS.md) always terminates
/// with a best-effort stream, never throws.
void lex(SourceFile& file);

/// Per-run cache of loaded files and directory listings.  All checks go
/// through one SourceTree so the repo is read once per lint invocation;
/// pointers returned by source() stay valid for the tree's lifetime.
class SourceTree {
 public:
  explicit SourceTree(std::filesystem::path root) : root_(std::move(root)) {}

  SourceTree(const SourceTree&) = delete;
  SourceTree& operator=(const SourceTree&) = delete;

  /// Loads (once) and returns the file at `rel_path`, or nullptr when it
  /// cannot be read; the failure is cached too, so each missing file costs
  /// one stat per run.
  const SourceFile* source(const std::string& rel_path);

  /// Sorted repo-relative paths of every .cpp/.hpp under `top_dir`
  /// (recursive), cached per directory.  Empty when the directory does not
  /// exist — pair with exists() for a "layout drifted" diagnostic.
  const std::vector<std::string>& files_under(const std::string& top_dir);

  [[nodiscard]] bool exists(const std::string& rel_path) const;

  /// Cache-efficiency counters for the CLI's --stats line.
  [[nodiscard]] std::size_t files_loaded() const noexcept { return files_loaded_; }
  [[nodiscard]] std::size_t bytes_loaded() const noexcept { return bytes_loaded_; }

 private:
  std::filesystem::path root_;
  std::map<std::string, std::optional<SourceFile>> files_;
  std::map<std::string, std::vector<std::string>> listings_;
  std::size_t files_loaded_ = 0;
  std::size_t bytes_loaded_ = 0;
};

/// Emits a diagnostic for a token-level check, honoring inline suppressions.
/// An `allow(<check>)` with a reason on `line` or the line directly above
/// suppresses the finding.  An allow without a reason does NOT suppress: the
/// finding is emitted and a second diagnostic marks the incomplete allow, so
/// `-- <reason>` stays mandatory.
void emit(const SourceFile& file, std::size_t line, const std::string& check,
          const std::string& message, Report& report,
          Severity severity = Severity::Error);

/// emit() for a finding about the whole file, reported at `line`: an
/// `allow(<check>)` anywhere in the file applies, under the same rules.
void emit_file_scoped(const SourceFile& file, std::size_t line, const std::string& check,
                      const std::string& message, Report& report,
                      Severity severity = Severity::Error);

/// Index of the matching closer for tokens[open] (one of ( [ {), or
/// tokens.size() when unbalanced.  Counts all three bracket kinds so nested
/// lambdas/initializers inside argument lists are skipped correctly.
[[nodiscard]] std::size_t matching_close(const std::vector<Token>& tokens,
                                         std::size_t open);

}  // namespace hpcfail::lint
