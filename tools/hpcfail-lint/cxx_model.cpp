#include "cxx_model.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace hpcfail::lint {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
[[nodiscard]] bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses `hpcfail-lint: allow(<check>) -- <reason>` occurrences out of one
/// comment's text.  Plain string scanning (no regex): this runs on every
/// comment of every loaded file.
void harvest_suppressions(std::string_view comment, std::size_t line,
                          std::vector<Suppression>& out) {
  static constexpr std::string_view kMarker = "hpcfail-lint: allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(kMarker, pos)) != std::string_view::npos) {
    const std::size_t name_begin = pos + kMarker.size();
    const std::size_t name_end = comment.find(')', name_begin);
    if (name_end == std::string_view::npos) break;
    Suppression s;
    s.line = line;
    s.check = std::string(comment.substr(name_begin, name_end - name_begin));
    std::string_view rest = comment.substr(name_end + 1);
    // The reason is whatever follows the first `--` (end-of-comment scoped;
    // a second allow() on the same comment is not supported and not used).
    const std::size_t dash = rest.find("--");
    if (dash != std::string_view::npos) {
      s.reason = std::string(trim(rest.substr(dash + 2)));
    }
    out.push_back(std::move(s));
    pos = name_end;
  }
}

/// Fuses two-character punctuation the checks care about; everything else
/// lexes one character at a time.
[[nodiscard]] std::size_t punct_len(std::string_view rest) {
  if (rest.size() >= 2) {
    const std::string_view two = rest.substr(0, 2);
    if (two == "::" || two == "->" || two == "&&" || two == "||") return 2;
  }
  return 1;
}

}  // namespace

void lex(SourceFile& file) {
  const std::string_view s = file.content;
  std::size_t i = 0;
  std::size_t line = 1;
  bool line_start = true;  ///< only whitespace seen since the last newline

  const auto push = [&](Token::Kind kind, std::size_t begin, std::size_t end,
                        std::size_t tok_line) {
    file.tokens.push_back(Token{kind, s.substr(begin, end - begin), tok_line});
  };

  while (i < s.size()) {
    const char c = s[i];

    if (c == '\n') {
      ++line;
      ++i;
      line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }

    // Preprocessor directive: '#' first on its line; continuations fold in.
    if (c == '#' && line_start) {
      const std::size_t begin = i;
      const std::size_t tok_line = line;
      while (i < s.size()) {
        if (s[i] == '\\' && i + 1 < s.size() && s[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (s[i] == '\n') break;
        ++i;
      }
      push(Token::Kind::Preprocessor, begin, i, tok_line);
      line_start = false;
      continue;
    }
    line_start = false;

    // Comments (not tokens; suppressions are harvested here).
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '/') {
      const std::size_t begin = i;
      while (i < s.size() && s[i] != '\n') ++i;
      harvest_suppressions(s.substr(begin, i - begin), line, file.suppressions);
      continue;
    }
    if (c == '/' && i + 1 < s.size() && s[i + 1] == '*') {
      const std::size_t begin = i;
      const std::size_t begin_line = line;
      i += 2;
      while (i + 1 < s.size() && !(s[i] == '*' && s[i + 1] == '/')) {
        if (s[i] == '\n') ++line;
        ++i;
      }
      i = (i + 1 < s.size()) ? i + 2 : s.size();
      harvest_suppressions(s.substr(begin, i - begin), begin_line, file.suppressions);
      continue;
    }

    // Identifier — possibly a string-literal prefix (R"..", u8"..", L'..').
    if (ident_start(c)) {
      const std::size_t begin = i;
      while (i < s.size() && ident_char(s[i])) ++i;
      const std::string_view word = s.substr(begin, i - begin);
      const bool raw_prefix =
          (word == "R" || word == "u8R" || word == "uR" || word == "LR");
      const bool lit_prefix = (word == "u8" || word == "u" || word == "L");
      if (raw_prefix && i < s.size() && s[i] == '"') {
        // Raw string: R"delim( ... )delim".  Tolerant: an unterminated raw
        // string swallows the rest of the file (it would be ill-formed C++
        // anyway; FORMATS.md is not C++ and must not hang the lexer).
        const std::size_t tok_line = line;
        ++i;  // opening quote
        const std::size_t delim_begin = i;
        while (i < s.size() && s[i] != '(' && s[i] != '\n' && i - delim_begin < 16) ++i;
        const std::string delim =
            ")" + std::string(s.substr(delim_begin, i - delim_begin)) + "\"";
        const std::size_t close = s.find(delim, i);
        const std::size_t end = close == std::string::npos ? s.size() : close + delim.size();
        line += static_cast<std::size_t>(
            std::count(s.begin() + static_cast<std::ptrdiff_t>(begin),
                       s.begin() + static_cast<std::ptrdiff_t>(end), '\n'));
        push(Token::Kind::RawString, begin, end, tok_line);
        i = end;
        continue;
      }
      if (lit_prefix && i < s.size() && (s[i] == '"' || s[i] == '\'')) {
        // Fall through to the quote handling below with the prefix attached:
        // rewind so the quoted body lexes as one literal, prefix included.
        // (Handled by not pushing the identifier; the quote branch reuses
        // `begin`.)
        const char quote = s[i];
        const std::size_t tok_line = line;
        ++i;
        while (i < s.size() && s[i] != quote && s[i] != '\n') {
          if (s[i] == '\\' && i + 1 < s.size()) ++i;
          ++i;
        }
        if (i < s.size() && s[i] == quote) ++i;
        push(quote == '"' ? Token::Kind::String : Token::Kind::CharLit, begin, i,
             tok_line);
        continue;
      }
      push(Token::Kind::Identifier, begin, i, line);
      continue;
    }

    // Numbers (digit separators, hex, exponents, suffixes — one blob).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      const std::size_t begin = i;
      while (i < s.size() && (ident_char(s[i]) || s[i] == '.' || s[i] == '\'' ||
                              ((s[i] == '+' || s[i] == '-') && i > begin &&
                               (s[i - 1] == 'e' || s[i - 1] == 'E' || s[i - 1] == 'p' ||
                                s[i - 1] == 'P')))) {
        ++i;
      }
      push(Token::Kind::Number, begin, i, line);
      continue;
    }

    // Ordinary string / char literals.
    if (c == '"' || c == '\'') {
      const std::size_t begin = i;
      const std::size_t tok_line = line;
      ++i;
      while (i < s.size() && s[i] != c && s[i] != '\n') {
        if (s[i] == '\\' && i + 1 < s.size()) ++i;
        ++i;
      }
      if (i < s.size() && s[i] == c) ++i;
      push(c == '"' ? Token::Kind::String : Token::Kind::CharLit, begin, i, tok_line);
      continue;
    }

    // Punctuation.
    const std::size_t len = punct_len(s.substr(i));
    push(Token::Kind::Punct, i, i + len, line);
    i += len;
  }
}

const SourceFile* SourceTree::source(const std::string& rel_path) {
  const auto it = files_.find(rel_path);
  if (it != files_.end()) return it->second ? &*it->second : nullptr;

  std::ifstream in(root_ / rel_path, std::ios::binary);
  if (!in) {
    files_.emplace(rel_path, std::nullopt);
    return nullptr;
  }
  SourceFile f;
  f.rel_path = rel_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  f.content = std::move(buf).str();

  f.lines.reserve(static_cast<std::size_t>(
      std::count(f.content.begin(), f.content.end(), '\n') + 1));
  std::size_t begin = 0;
  while (begin <= f.content.size()) {
    std::size_t end = f.content.find('\n', begin);
    if (end == std::string::npos) {
      if (begin < f.content.size()) f.lines.emplace_back(f.content.substr(begin));
      break;
    }
    std::size_t len = end - begin;
    if (len > 0 && f.content[begin + len - 1] == '\r') --len;  // CRLF
    f.lines.emplace_back(f.content.substr(begin, len));
    begin = end + 1;
  }

  lex(f);
  ++files_loaded_;
  bytes_loaded_ += f.content.size();
  const auto [pos, inserted] = files_.emplace(rel_path, std::move(f));
  (void)inserted;
  return &*pos->second;
}

const std::vector<std::string>& SourceTree::files_under(const std::string& top_dir) {
  const auto it = listings_.find(top_dir);
  if (it != listings_.end()) return it->second;

  std::vector<std::string> paths;
  const fs::path dir = root_ / top_dir;
  std::error_code ec;
  if (fs::exists(dir, ec)) {
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      paths.push_back(fs::relative(entry.path(), root_).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return listings_.emplace(top_dir, std::move(paths)).first->second;
}

bool SourceTree::exists(const std::string& rel_path) const {
  std::error_code ec;
  return fs::exists(root_ / rel_path, ec);
}

namespace {

/// Reports the finding unless `allow` is a reasoned allow; a reasonless one
/// leaves the finding standing and is diagnosed itself.
void emit_under(const Suppression* allow, const SourceFile& file, std::size_t line,
                const std::string& check, const std::string& message, Report& report,
                Severity severity) {
  if (allow != nullptr && !allow->reason.empty()) return;
  report.add(file.rel_path, line, check, message, severity);
  if (allow != nullptr) {
    report.add(file.rel_path, allow->line, check,
               "allow(" + check + ") suppression is missing its reason; write: " +
                   "// hpcfail-lint: allow(" + check + ") -- <why this is safe>",
               severity);
  }
}

}  // namespace

void emit(const SourceFile& file, std::size_t line, const std::string& check,
          const std::string& message, Report& report, Severity severity) {
  const auto it = std::find_if(
      file.suppressions.begin(), file.suppressions.end(), [&](const Suppression& s) {
        return s.check == check && (s.line == line || s.line + 1 == line);
      });
  emit_under(it == file.suppressions.end() ? nullptr : &*it, file, line, check, message,
             report, severity);
}

void emit_file_scoped(const SourceFile& file, std::size_t line, const std::string& check,
                      const std::string& message, Report& report, Severity severity) {
  const auto it = std::find_if(file.suppressions.begin(), file.suppressions.end(),
                               [&](const Suppression& s) { return s.check == check; });
  emit_under(it == file.suppressions.end() ? nullptr : &*it, file, line, check, message,
             report, severity);
}

std::size_t matching_close(const std::vector<Token>& tokens, std::size_t open) {
  int paren = 0;
  int bracket = 0;
  int brace = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::Punct) continue;
    const std::string_view t = tokens[i].text;
    if (t == "(") ++paren;
    else if (t == ")") --paren;
    else if (t == "[") ++bracket;
    else if (t == "]") --bracket;
    else if (t == "{") ++brace;
    else if (t == "}") --brace;
    else continue;
    if (paren == 0 && bracket == 0 && brace == 0 && i > open) return i;
    if (paren < 0 || bracket < 0 || brace < 0) return tokens.size();
  }
  return tokens.size();
}

}  // namespace hpcfail::lint
