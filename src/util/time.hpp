// Time representation for log timestamps.
//
// All timestamps are UTC microseconds since the Unix epoch, wrapped in a
// strong type so that raw integers cannot be confused with durations or
// counts.  The renderers write ISO-8601 ("2015-03-02T14:05:01.123456", Cray
// console logs), classic syslog ("Mar  2 14:05:01", /var/log style messages
// files) and Torque ("03/02/2015 14:05:01") stamps with the append_*
// writers, straight onto the line being built; format_iso is the one
// string-returning formatter.  The parsers read those three plus the
// scheduler's SQL-style "2015-03-02 14:05:01".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hpcfail::util {

/// Signed duration in microseconds.
struct Duration {
  std::int64_t usec = 0;

  [[nodiscard]] static constexpr Duration microseconds(std::int64_t v) { return {v}; }
  [[nodiscard]] static constexpr Duration milliseconds(std::int64_t v) { return {v * 1000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t v) { return {v * 1'000'000}; }
  [[nodiscard]] static constexpr Duration minutes(std::int64_t v) { return {v * 60'000'000}; }
  [[nodiscard]] static constexpr Duration hours(std::int64_t v) { return {v * 3'600'000'000LL}; }
  [[nodiscard]] static constexpr Duration days(std::int64_t v) { return {v * 86'400'000'000LL}; }

  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(usec) / 1e6; }
  [[nodiscard]] constexpr double to_minutes() const { return static_cast<double>(usec) / 60e6; }
  [[nodiscard]] constexpr double to_hours() const { return static_cast<double>(usec) / 3600e6; }

  constexpr auto operator<=>(const Duration&) const = default;
  constexpr Duration operator+(Duration o) const { return {usec + o.usec}; }
  constexpr Duration operator-(Duration o) const { return {usec - o.usec}; }
  constexpr Duration operator-() const { return {-usec}; }
  constexpr Duration operator/(std::int64_t k) const { return {usec / k}; }
};

/// UTC instant, microseconds since the Unix epoch.
struct TimePoint {
  std::int64_t usec = 0;

  [[nodiscard]] static constexpr TimePoint from_unix_seconds(std::int64_t s) {
    return {s * 1'000'000};
  }
  [[nodiscard]] constexpr std::int64_t unix_seconds() const { return usec / 1'000'000; }

  constexpr auto operator<=>(const TimePoint&) const = default;
  constexpr TimePoint operator+(Duration d) const { return {usec + d.usec}; }
  constexpr TimePoint operator-(Duration d) const { return {usec - d.usec}; }
  constexpr Duration operator-(TimePoint o) const { return {usec - o.usec}; }

  /// Days since the epoch (UTC midnight boundaries). Negative-safe.
  [[nodiscard]] constexpr std::int64_t day_index() const {
    const std::int64_t day_usec = 86'400'000'000LL;
    std::int64_t d = usec / day_usec;
    if (usec % day_usec < 0) --d;
    return d;
  }

  /// Hour of day in [0, 24).
  [[nodiscard]] constexpr int hour_of_day() const {
    const std::int64_t day_usec = 86'400'000'000LL;
    std::int64_t in_day = usec % day_usec;
    if (in_day < 0) in_day += day_usec;
    return static_cast<int>(in_day / 3'600'000'000LL);
  }
};

/// Calendar date/time decomposition (UTC, proleptic Gregorian).
struct CivilTime {
  int year = 1970;
  int month = 1;   ///< 1..12
  int day = 1;     ///< 1..31
  int hour = 0;    ///< 0..23
  int minute = 0;  ///< 0..59
  int second = 0;  ///< 0..59
  int usec = 0;    ///< 0..999999
};

/// Days since epoch for a civil date (Howard Hinnant's algorithm).
[[nodiscard]] std::int64_t days_from_civil(int y, int m, int d) noexcept;

/// Inverse of days_from_civil.
void civil_from_days(std::int64_t z, int& y, int& m, int& d) noexcept;

[[nodiscard]] TimePoint make_time(const CivilTime& c) noexcept;
[[nodiscard]] TimePoint make_time(int y, int mo, int d, int h = 0, int mi = 0,
                                  int s = 0, int us = 0) noexcept;
[[nodiscard]] CivilTime civil_time(TimePoint t) noexcept;

/// "2015-03-02T14:05:01.123456" (`%04d-%02d-%02dT%02d:%02d:%02d.%06d`)
void append_iso(std::string& out, TimePoint t);
[[nodiscard]] std::string format_iso(TimePoint t);
/// "Mar  2 14:05:01" (syslog style; day is space-padded)
void append_syslog(std::string& out, TimePoint t);

/// Parses the ISO format produced by format_iso. Fractional seconds of any
/// length 0..6 and an optional trailing 'Z' are accepted.
[[nodiscard]] std::optional<TimePoint> parse_iso(std::string_view s) noexcept;

/// Parses "2015-03-02 14:05:01" (scheduler-log style, seconds precision).
[[nodiscard]] std::optional<TimePoint> parse_sql(std::string_view s) noexcept;

/// Parses syslog timestamps. Syslog lines carry no year, so the caller
/// supplies one.
[[nodiscard]] std::optional<TimePoint> parse_syslog(std::string_view s, int year) noexcept;

/// Year-rollover-aware syslog parse for a log window starting in
/// (base_year, base_month): months earlier in the calendar than base_month
/// belong to base_year + 1 (a Dec 31 -> Jan 1 window dates "Jan  1" lines
/// into the next year).  Stateless, so parallel shards agree with a
/// sequential month-regression scan for any window shorter than 12 months.
[[nodiscard]] std::optional<TimePoint> parse_syslog(std::string_view s, int base_year,
                                                    int base_month) noexcept;

/// "03/02/2015 14:05:01" (Torque/PBS server-log style).
void append_torque(std::string& out, TimePoint t);
[[nodiscard]] std::optional<TimePoint> parse_torque(std::string_view s) noexcept;

/// Human-readable duration, e.g. "2.5 min", "3.1 h", "45 s".
[[nodiscard]] std::string format_duration(Duration d);

}  // namespace hpcfail::util
