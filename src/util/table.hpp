// Plain-text table rendering for the benchmark harnesses.
//
// Every figure/table bench prints a "paper vs measured" table; this class
// keeps those outputs aligned and uniform.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::util {

class TextTable {
 public:
  TextTable() = default;
  explicit TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  /// Optional title printed above the table.
  void set_title(std::string title) { title_ = std::move(title); }

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  /// Convenience for mixed-type rows.
  class RowBuilder {
   public:
    explicit RowBuilder(TextTable& t) : table_(t) {}
    ~RowBuilder() { table_.add_row(std::move(cells_)); }
    RowBuilder(const RowBuilder&) = delete;
    RowBuilder& operator=(const RowBuilder&) = delete;

    RowBuilder& cell(std::string_view v) {
      cells_.emplace_back(v);
      return *this;
    }
    RowBuilder& cell(double v, int precision = 2);
    RowBuilder& cell(std::int64_t v);
    RowBuilder& cell(int v) { return cell(static_cast<std::int64_t>(v)); }
    /// Percentage with a '%' suffix.
    RowBuilder& pct(double fraction, int precision = 2);

   private:
    TextTable& table_;
    std::vector<std::string> cells_;
  };

  [[nodiscard]] RowBuilder row() { return RowBuilder{*this}; }

  /// Renders the table with aligned columns and a header rule.
  [[nodiscard]] std::string render() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with benches).
[[nodiscard]] std::string fmt_double(double v, int precision = 2);

/// Formats a fraction as "12.34%".
[[nodiscard]] std::string fmt_pct(double fraction, int precision = 2);

}  // namespace hpcfail::util
