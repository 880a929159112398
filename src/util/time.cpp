#include "util/time.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "util/scan.hpp"
#include "util/strings.hpp"

namespace hpcfail::util {

namespace {

constexpr std::array<std::string_view, 12> kMonthNames = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

bool parse_int_field(std::string_view s, std::size_t pos, std::size_t len, int& out) noexcept {
  if (pos + len > s.size()) return false;
  // The fixed timestamp formats only ever ask for 1-, 2- or 4-digit
  // fields; the two wide cases go through the branchless SWAR parsers.
  switch (len) {
    case 2:
      return scan::parse_digits2(s.data() + pos, out);
    case 4:
      return scan::parse_digits4(s.data() + pos, out);
    default:
      break;
  }
  int value = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const char c = s[pos + i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  out = value;
  return true;
}

/// Month token plus its mandatory trailing space ("Mar ") as one 32-bit
/// compare instead of twelve 3-byte string compares.
int parse_month_sp(const char* p) noexcept {
  std::uint32_t key;
  std::memcpy(&key, p, 4);
  static const std::array<std::uint32_t, 12> kMonthKeys = [] {
    std::array<std::uint32_t, 12> keys{};
    for (std::size_t i = 0; i < 12; ++i) {
      const char buf[4] = {kMonthNames[i][0], kMonthNames[i][1], kMonthNames[i][2], ' '};
      std::memcpy(&keys[i], buf, 4);
    }
    return keys;
  }();
  for (std::size_t i = 0; i < 12; ++i) {
    if (key == kMonthKeys[i]) return static_cast<int>(i) + 1;
  }
  return 0;
}

/// Writes `v` (0..99) as two digits.
char* put2(char* p, int v) noexcept {
  p[0] = static_cast<char>('0' + v / 10);
  p[1] = static_cast<char>('0' + v % 10);
  return p + 2;
}

/// Writes `%04d` of a year: four digits in the common case, printf's wider
/// or signed form outside 0..9999 (up to 11 characters).
char* put_year(char* p, int year) noexcept {
  if (year >= 0 && year <= 9999) return put2(put2(p, year / 100), year % 100);
  if (year >= 0) return put_padded(p, static_cast<std::uint64_t>(year), 4);
  *p++ = '-';
  return put_padded(p, 0 - static_cast<std::uint64_t>(static_cast<std::int64_t>(year)), 3);
}

bool valid_civil(int mo, int d, int h, int mi, int sec) noexcept {
  return mo >= 1 && mo <= 12 && d >= 1 && d <= 31 && h >= 0 && h < 24 &&
         mi >= 0 && mi < 60 && sec >= 0 && sec < 60;
}

}  // namespace

std::int64_t days_from_civil(int y, int m, int d) noexcept {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                       static_cast<unsigned>(d) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, int& y, int& m, int& d) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  y = static_cast<int>(yy + (m <= 2));
}

TimePoint make_time(const CivilTime& c) noexcept {
  const std::int64_t days = days_from_civil(c.year, c.month, c.day);
  std::int64_t sec = days * 86400 + c.hour * 3600 + c.minute * 60 + c.second;
  return TimePoint{sec * 1'000'000 + c.usec};
}

TimePoint make_time(int y, int mo, int d, int h, int mi, int s, int us) noexcept {
  return make_time(CivilTime{y, mo, d, h, mi, s, us});
}

CivilTime civil_time(TimePoint t) noexcept {
  CivilTime c;
  std::int64_t sec = t.usec / 1'000'000;
  std::int64_t us = t.usec % 1'000'000;
  if (us < 0) {
    us += 1'000'000;
    --sec;
  }
  std::int64_t days = sec / 86400;
  std::int64_t in_day = sec % 86400;
  if (in_day < 0) {
    in_day += 86400;
    --days;
  }
  civil_from_days(days, c.year, c.month, c.day);
  c.hour = static_cast<int>(in_day / 3600);
  c.minute = static_cast<int>((in_day % 3600) / 60);
  c.second = static_cast<int>(in_day % 60);
  c.usec = static_cast<int>(us);
  return c;
}

void append_iso(std::string& out, TimePoint t) {
  const CivilTime c = civil_time(t);
  char buf[40];  // YYYY-MM-DDTHH:MM:SS.ffffff
  char* p = put_year(buf, c.year);
  *p++ = '-';
  p = put2(p, c.month);
  *p++ = '-';
  p = put2(p, c.day);
  *p++ = 'T';
  p = put2(p, c.hour);
  *p++ = ':';
  p = put2(p, c.minute);
  *p++ = ':';
  p = put2(p, c.second);
  *p++ = '.';
  p = put2(p, c.usec / 10000);
  p = put2(p, c.usec / 100 % 100);
  p = put2(p, c.usec % 100);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

std::string format_iso(TimePoint t) {
  std::string out;
  append_iso(out, t);
  return out;
}

void append_syslog(std::string& out, TimePoint t) {
  const CivilTime c = civil_time(t);
  char buf[15];  // Mmm DD HH:MM:SS, the day space-padded
  kMonthNames[static_cast<std::size_t>(c.month - 1)].copy(buf, 3);
  buf[3] = ' ';
  put2(buf + 4, c.day);
  if (c.day < 10) buf[4] = ' ';
  buf[6] = ' ';
  char* p = put2(buf + 7, c.hour);
  *p++ = ':';
  p = put2(p, c.minute);
  *p++ = ':';
  put2(p, c.second);
  out.append(buf, sizeof buf);
}

std::optional<TimePoint> parse_iso(std::string_view s) noexcept {
  // YYYY-MM-DDTHH:MM:SS[.ffffff][Z]
  if (s.size() < 19) return std::nullopt;
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, sec = 0;
  if (!parse_int_field(s, 0, 4, y) || s[4] != '-' || !parse_int_field(s, 5, 2, mo) ||
      s[7] != '-' || !parse_int_field(s, 8, 2, d) || (s[10] != 'T' && s[10] != ' ') ||
      !parse_int_field(s, 11, 2, h) || s[13] != ':' || !parse_int_field(s, 14, 2, mi) ||
      s[16] != ':' || !parse_int_field(s, 17, 2, sec)) {
    return std::nullopt;
  }
  if (!valid_civil(mo, d, h, mi, sec)) return std::nullopt;
  int us = 0;
  std::size_t pos = 19;
  if (pos < s.size() && s[pos] == '.') {
    ++pos;
    int scale = 100000;
    std::size_t digits = 0;
    while (pos < s.size() && digits < 6 && s[pos] >= '0' && s[pos] <= '9') {
      us += (s[pos] - '0') * scale;
      scale /= 10;
      ++pos;
      ++digits;
    }
    if (digits == 0) return std::nullopt;
  }
  if (pos < s.size() && s[pos] == 'Z') ++pos;
  if (pos != s.size()) return std::nullopt;
  return make_time(y, mo, d, h, mi, sec, us);
}

std::optional<TimePoint> parse_sql(std::string_view s) noexcept {
  if (s.size() != 19 || s[10] != ' ') return std::nullopt;
  return parse_iso(std::string(s.substr(0, 10)) + "T" + std::string(s.substr(11)));
}

std::optional<TimePoint> parse_syslog(std::string_view s, int year) noexcept {
  // "Mar  2 14:05:01" or "Mar 12 14:05:01"
  if (s.size() < 15) return std::nullopt;
  const int month = parse_month_sp(s.data());  // covers the s[3] == ' ' check
  if (month == 0) return std::nullopt;
  int day = 0;
  if (s[4] == ' ') {
    if (!parse_int_field(s, 5, 1, day)) return std::nullopt;
  } else {
    if (!parse_int_field(s, 4, 2, day)) return std::nullopt;
  }
  int h = 0, mi = 0, sec = 0;
  if (s[6] != ' ' || !parse_int_field(s, 7, 2, h) || s[9] != ':' ||
      !parse_int_field(s, 10, 2, mi) || s[12] != ':' || !parse_int_field(s, 13, 2, sec)) {
    return std::nullopt;
  }
  if (!valid_civil(month, day, h, mi, sec)) return std::nullopt;
  return make_time(year, month, day, h, mi, sec, 0);
}

std::optional<TimePoint> parse_syslog(std::string_view s, int base_year,
                                      int base_month) noexcept {
  const auto t = parse_syslog(s, base_year);
  if (!t) return std::nullopt;
  // The effective month comes from civil_time, not the token: "Feb 29"
  // normalizes to Mar 1 in non-leap years, and the reparse below recovers
  // the true leap day when the post-rollover year is leap.
  if (civil_time(*t).month < base_month) return parse_syslog(s, base_year + 1);
  return t;
}

void append_torque(std::string& out, TimePoint t) {
  const CivilTime c = civil_time(t);
  char buf[32];  // MM/DD/YYYY HH:MM:SS
  char* p = put2(buf, c.month);
  *p++ = '/';
  p = put2(p, c.day);
  *p++ = '/';
  p = put_year(p, c.year);
  *p++ = ' ';
  p = put2(p, c.hour);
  *p++ = ':';
  p = put2(p, c.minute);
  *p++ = ':';
  p = put2(p, c.second);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

std::optional<TimePoint> parse_torque(std::string_view s) noexcept {
  // MM/DD/YYYY HH:MM:SS
  if (s.size() != 19) return std::nullopt;
  int mo = 0, d = 0, y = 0, h = 0, mi = 0, sec = 0;
  if (!parse_int_field(s, 0, 2, mo) || s[2] != '/' || !parse_int_field(s, 3, 2, d) ||
      s[5] != '/' || !parse_int_field(s, 6, 4, y) || s[10] != ' ' ||
      !parse_int_field(s, 11, 2, h) || s[13] != ':' || !parse_int_field(s, 14, 2, mi) ||
      s[16] != ':' || !parse_int_field(s, 17, 2, sec)) {
    return std::nullopt;
  }
  if (!valid_civil(mo, d, h, mi, sec)) return std::nullopt;
  return make_time(y, mo, d, h, mi, sec, 0);
}

std::string format_duration(Duration d) {
  const double s = std::abs(d.to_seconds());
  char buf[32];
  const char* sign = d.usec < 0 ? "-" : "";
  if (s < 1.0) {
    std::snprintf(buf, sizeof buf, "%s%.0f ms", sign, s * 1000.0);
  } else if (s < 120.0) {
    std::snprintf(buf, sizeof buf, "%s%.1f s", sign, s);
  } else if (s < 7200.0) {
    std::snprintf(buf, sizeof buf, "%s%.1f min", sign, s / 60.0);
  } else if (s < 172800.0) {
    std::snprintf(buf, sizeof buf, "%s%.1f h", sign, s / 3600.0);
  } else {
    std::snprintf(buf, sizeof buf, "%s%.1f d", sign, s / 86400.0);
  }
  return buf;
}

}  // namespace hpcfail::util
