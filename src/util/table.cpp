#include "util/table.hpp"

#include <algorithm>
#include <cstdio>

namespace hpcfail::util {

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  return fmt_double(fraction * 100.0, precision) + "%";
}

TextTable::RowBuilder& TextTable::RowBuilder::cell(double v, int precision) {
  cells_.push_back(fmt_double(v, precision));
  return *this;
}

TextTable::RowBuilder& TextTable::RowBuilder::cell(std::int64_t v) {
  cells_.push_back(std::to_string(v));
  return *this;
}

TextTable::RowBuilder& TextTable::RowBuilder::pct(double fraction, int precision) {
  cells_.push_back(fmt_pct(fraction, precision));
  return *this;
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths;
  auto grow = [&widths](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  grow(headers_);
  for (const auto& r : rows_) grow(r);

  std::string out;
  if (!title_.empty()) {
    out += title_;
    out += '\n';
  }
  auto emit = [&out, &widths](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      out += c;
      if (i + 1 < widths.size()) out.append(widths[i] - c.size() + 2, ' ');
    }
    out += '\n';
  };
  if (!headers_.empty()) {
    emit(headers_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
    }
    out.append(total, '-');
    out += '\n';
  }
  for (const auto& r : rows_) emit(r);
  return out;
}

}  // namespace hpcfail::util
