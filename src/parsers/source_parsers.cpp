#include "parsers/source_parsers.hpp"

#include <array>

#include "loggen/nid_ranges.hpp"
#include "parsers/line_classifier.hpp"
#include "platform/cname.hpp"
#include "util/scan.hpp"
#include "util/strings.hpp"

namespace hpcfail::parsers {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogSource;
using logmodel::Severity;

namespace {

/// Consumes the first whitespace-separated token.
std::string_view take_token(std::string_view& rest) noexcept {
  rest = util::trim(rest);
  std::size_t end = util::scan::find_byte(rest, ' ');
  if (end == util::scan::npos) end = rest.size();
  const std::string_view token = rest.substr(0, end);
  rest = end < rest.size() ? rest.substr(end + 1) : std::string_view{};
  return token;
}

/// Strips a trailing " jobid=N" from the payload, returning the id.
std::int64_t extract_job_id(std::string_view& payload) noexcept {
  const auto value = util::find_kv(payload, "jobid");
  if (!value) return logmodel::kNoJob;
  const auto id = util::parse_i64(*value);
  if (!id) return logmodel::kNoJob;
  const auto pos = payload.rfind(" jobid=");
  if (pos != std::string_view::npos) payload = payload.substr(0, pos);
  return *id;
}

void fill_location(LogRecord& r, const platform::Topology& topo) noexcept {
  if (r.node.valid()) {
    r.blade = topo.blade_of(r.node);
    r.cabinet = topo.cabinet_of(r.node);
  } else if (r.blade.valid()) {
    r.cabinet = topo.cabinet_of_blade(r.blade);
  }
}

/// First floating-point number following "reading " in a payload.
double extract_reading(std::string_view payload) noexcept {
  const auto pos = payload.find("reading ");
  if (pos == std::string_view::npos) return 0.0;
  std::string_view rest = payload.substr(pos + 8);
  std::size_t end = 0;
  while (end < rest.size() &&
         ((rest[end] >= '0' && rest[end] <= '9') || rest[end] == '.' || rest[end] == '-')) {
    ++end;
  }
  return util::parse_double(rest.substr(0, end)).value_or(0.0);
}

}  // namespace

std::optional<LogRecord> parse_console_line(std::string_view line,
                                            const ParseContext& ctx) {
  if (ctx.topo == nullptr || ctx.symbols == nullptr) return std::nullopt;
  std::string_view rest = line;
  const auto ts_token = take_token(rest);
  const auto time = util::parse_iso(ts_token);
  if (!time) return std::nullopt;

  const auto node_token = take_token(rest);
  const auto node = ctx.topo->node_from_name(node_token);
  if (!node) return std::nullopt;

  if (ctx.topo->config().naming == platform::NamingScheme::CrayCname) {
    const auto cname_token = take_token(rest);  // redundant with the nid
    if (!platform::parse_cname(cname_token)) return std::nullopt;
  }

  const auto daemon = take_token(rest);
  LogSource source = LogSource::Console;
  if (daemon == "hwerrd:") {
    source = LogSource::Consumer;
  } else if (daemon != "kernel:") {
    return std::nullopt;
  }

  std::string_view payload = util::trim(rest);
  const std::int64_t job_id = extract_job_id(payload);
  const auto classified = classify_kernel_payload(payload);
  if (!classified) return std::nullopt;

  LogRecord r;
  r.time = *time;
  r.source = source;
  r.type = classified->type;
  r.severity = classified->severity;
  r.node = *node;
  r.job_id = job_id;
  r.detail = ctx.symbols->intern(classified->detail);
  fill_location(r, *ctx.topo);
  return r;
}

std::optional<LogRecord> parse_messages_line(std::string_view line,
                                             const ParseContext& ctx) {
  if (ctx.topo == nullptr || ctx.symbols == nullptr || line.size() < 16) return std::nullopt;
  const auto time = util::parse_syslog(line.substr(0, 15), ctx.base_year, ctx.base_month);
  if (!time) return std::nullopt;
  std::string_view rest = util::trim(line.substr(15));

  const auto node_token = take_token(rest);
  const auto node = ctx.topo->node_from_name(node_token);
  if (!node) return std::nullopt;

  const auto daemon = take_token(rest);
  if (!util::starts_with(daemon, "nhc[")) return std::nullopt;

  std::string_view payload = util::trim(rest);
  const std::int64_t job_id = extract_job_id(payload);
  const auto classified = classify_nhc_payload(payload);
  if (!classified) return std::nullopt;

  LogRecord r;
  r.time = *time;
  r.source = LogSource::Messages;
  r.type = classified->type;
  r.severity = classified->severity;
  r.node = *node;
  r.job_id = job_id;
  r.detail = ctx.symbols->intern(classified->detail);
  fill_location(r, *ctx.topo);
  return r;
}

std::optional<LogRecord> parse_controller_line(std::string_view line,
                                               const ParseContext& ctx) {
  if (ctx.topo == nullptr || ctx.symbols == nullptr) return std::nullopt;
  std::string_view rest = line;
  const auto ts_token = take_token(rest);
  const auto time = util::parse_iso(ts_token);
  if (!time) return std::nullopt;

  const auto cname_token = take_token(rest);
  const auto cname = platform::parse_cname(cname_token);
  if (!cname) return std::nullopt;

  const auto daemon = take_token(rest);
  if (daemon != "cc:" && daemon != "bc:") return std::nullopt;

  const std::string_view payload = util::trim(rest);
  const auto classified = classify_controller_payload(payload);
  if (!classified) return std::nullopt;

  LogRecord r;
  r.time = *time;
  r.source = LogSource::Controller;
  r.type = classified->type;
  r.severity = classified->severity;
  switch (cname->level()) {
    case platform::CnameLevel::Node:
      if (const auto node = ctx.topo->node_from_cname(*cname)) r.node = *node;
      break;
    case platform::CnameLevel::Blade:
      if (const auto blade = ctx.topo->blade_from_cname(*cname)) r.blade = *blade;
      break;
    default:
      if (const auto cab = ctx.topo->cabinet_from_cname(*cname)) r.cabinet = *cab;
      break;
  }
  fill_location(r, *ctx.topo);

  if (r.type == EventType::SedcReading) {
    // "sedc: <sensor> value=V" — detail is the sensor, value after "value=".
    const auto value = util::find_kv(payload, "value");
    if (value) r.value = util::parse_double(*value).value_or(0.0);
    std::string_view d = classified->detail;
    const auto sp = d.find(' ');
    r.detail = ctx.symbols->intern(sp == std::string_view::npos ? d : d.substr(0, sp));
  } else {
    r.value = extract_reading(payload);
    r.detail = ctx.symbols->intern(classified->detail);
  }
  return r;
}

std::optional<LogRecord> parse_erd_line(std::string_view line,
                                        const ParseContext& ctx) {
  if (ctx.topo == nullptr || ctx.symbols == nullptr) return std::nullopt;
  std::string_view rest = line;
  const auto ts_token = take_token(rest);
  const auto time = util::parse_iso(ts_token);
  if (!time) return std::nullopt;
  if (take_token(rest) != "erd") return std::nullopt;

  const auto ev = util::find_kv(rest, "ev");
  const auto src = util::find_kv(rest, "src");
  if (!ev || !src) return std::nullopt;
  const auto type = logmodel::erd_event_type(*ev);
  if (!type) return std::nullopt;
  const auto cname = platform::parse_cname(*src);
  if (!cname) return std::nullopt;

  LogRecord r;
  r.time = *time;
  r.source = LogSource::Erd;
  r.type = *type;
  r.severity = logmodel::is_health_fault(*type) ? Severity::Error : Severity::Warning;

  if (const auto node_token = util::find_kv(rest, "node")) {
    if (const auto node = ctx.topo->node_from_name(*node_token)) r.node = *node;
  }
  if (!r.node.valid()) {
    switch (cname->level()) {
      case platform::CnameLevel::Node:
        if (const auto node = ctx.topo->node_from_cname(*cname)) r.node = *node;
        break;
      case platform::CnameLevel::Blade:
        if (const auto blade = ctx.topo->blade_from_cname(*cname)) r.blade = *blade;
        break;
      default:
        if (const auto cab = ctx.topo->cabinet_from_cname(*cname)) r.cabinet = *cab;
        break;
    }
  }
  fill_location(r, *ctx.topo);

  // Detail is everything after the last kv token we understand.
  const auto node_pos = rest.find(" node=");
  const auto src_pos = rest.find("src=");
  std::string_view detail;
  if (node_pos != std::string_view::npos) {
    const auto sp = rest.find(' ', node_pos + 1);
    detail = sp == std::string_view::npos ? std::string_view{} : rest.substr(sp + 1);
  } else if (src_pos != std::string_view::npos) {
    const auto sp = rest.find(' ', src_pos);
    detail = sp == std::string_view::npos ? std::string_view{} : rest.substr(sp + 1);
  }
  r.detail = ctx.symbols->intern(util::trim(detail));
  return r;
}

namespace {

/// Appends the line's job update and returns it to fill.
jobs::JobUpdate& push_update(const ParseContext& ctx, jobs::JobUpdate::Kind kind,
                             std::int64_t job_id) {
  jobs::JobUpdate& update = ctx.job_updates->emplace_back();
  update.kind = kind;
  update.row.job_id = job_id;
  return update;
}

// The job facts both dialects share: each completes the record (time,
// source and severity already set) and appends the line's job update.

LogRecord job_end(LogRecord r, std::int64_t job_id, int exit_code, std::string_view reason,
                  const ParseContext& ctx) {
  r.type = EventType::JobEnd;
  r.job_id = job_id;
  r.value = exit_code;
  r.detail = ctx.symbols->intern(reason);
  r.severity = exit_code == 0 ? Severity::Info : Severity::Error;
  jobs::JobUpdate& update = push_update(ctx, jobs::JobUpdate::Kind::End, job_id);
  update.row.end = r.time;
  update.row.exit_code = exit_code;
  update.reason = reason;
  return r;
}

LogRecord job_cancelled(LogRecord r, std::int64_t job_id, std::string_view detail,
                        const ParseContext& ctx) {
  r.type = EventType::JobCancelled;
  r.job_id = job_id;
  r.detail = ctx.symbols->intern(detail);
  push_update(ctx, jobs::JobUpdate::Kind::Cancel, job_id);
  return r;
}

LogRecord job_overallocated(LogRecord r, std::int64_t job_id, std::int64_t nodes,
                            const ParseContext& ctx) {
  r.type = EventType::JobOverallocation;
  r.job_id = job_id;
  r.severity = Severity::Warning;
  r.detail = ctx.symbols->intern("allocated memory exceeds node capacity");
  r.value = static_cast<double>(nodes);
  push_update(ctx, jobs::JobUpdate::Kind::Overallocate, job_id).row.overallocated_nodes =
      static_cast<std::uint32_t>(nodes);
  return r;
}

/// An allocation's payload: the JobStart record, plus the start update
/// carrying the whole job; nullopt without a valid node list.
std::optional<LogRecord> job_started(LogRecord r, std::int64_t job_id,
                                     std::string_view payload, const ParseContext& ctx) {
  // One left-to-right token walk instead of five find_kv() scans: the
  // NodeList value on wide allocations runs to kilobytes, and rescanning
  // it per key dominated the scheduler parse.
  std::string_view node_list, apid, user, app, mem;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    while (pos < payload.size() && payload[pos] == ' ') ++pos;
    std::size_t end = util::scan::find_byte(payload, ' ', pos);
    if (end == util::scan::npos) end = payload.size();
    const std::string_view token = payload.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = util::scan::find_byte(token, '=');
    if (eq == util::scan::npos) continue;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "NodeList") {
      node_list = value;
    } else if (key == "Apid") {
      apid = value;
    } else if (key == "User") {
      user = value;
    } else if (key == "App") {
      app = value;
    } else if (key == "MemPerNode") {
      mem = value;
    }
  }
  if (node_list.empty()) return std::nullopt;
  jobs::JobUpdate update;
  update.row.job_id = job_id;
  if (!apid.empty()) update.row.apid = util::parse_i64(apid).value_or(0);
  update.row.start = r.time;
  update.row.end = r.time + util::Duration::days(36500);  // open until the end record
  if (!mem.empty()) {
    std::string_view m = mem;
    if (util::ends_with(m, "G")) m.remove_suffix(1);
    update.row.mem_per_node_gb = util::parse_double(m).value_or(0.0);
  }
  update.user = user;
  update.app = app;
  auto nodes = loggen::expand_node_list(node_list);
  if (!nodes || ctx.topo == nullptr) return std::nullopt;
  // JobTable sizes its per-node index by the largest nid, so one corrupted
  // nid outside the machine would ask for gigabytes.
  const std::size_t node_count = ctx.topo->node_count();
  for (const platform::NodeId node : *nodes) {
    if (node.value >= node_count) return std::nullopt;
  }
  update.nodes = std::move(*nodes);
  r.type = EventType::JobStart;
  r.job_id = job_id;
  r.detail = ctx.symbols->intern(update.app);
  ctx.job_updates->push_back(std::move(update));
  return r;
}

/// Slurm dialect: ISO_TS slurmctld: <payload> (pbs_server: is accepted too).
std::optional<LogRecord> parse_slurm_line(std::string_view line, const ParseContext& ctx) {
  std::string_view rest = line;
  const auto ts_token = take_token(rest);
  const auto time = util::parse_iso(ts_token);
  if (!time) return std::nullopt;
  const auto daemon = take_token(rest);
  if (daemon != "slurmctld:" && daemon != "pbs_server:") return std::nullopt;
  rest = util::trim(rest);

  LogRecord r;
  r.time = *time;
  r.source = LogSource::Scheduler;
  r.severity = Severity::Info;

  auto kv_i64 = [&rest](std::string_view key) -> std::optional<std::int64_t> {
    const auto v = util::find_kv(rest, key);
    return v ? util::parse_i64(*v) : std::nullopt;
  };

  if (util::starts_with(rest, "sched: Allocate ")) {
    const auto job_id = kv_i64("JobId");
    if (!job_id) return std::nullopt;
    return job_started(r, *job_id, rest, ctx);
  }
  if (util::contains(rest, "Ended ExitCode=")) {
    const auto job_id = kv_i64("JobId");
    const auto exit_field = util::find_kv(rest, "ExitCode");
    const auto reason = util::find_kv(rest, "Reason");
    if (!job_id || !exit_field) return std::nullopt;
    const auto colon = exit_field->find(':');
    const int exit_code = static_cast<int>(
        util::parse_i64(exit_field->substr(0, colon)).value_or(-1));
    return job_end(r, *job_id, exit_code, reason.value_or(std::string_view{}), ctx);
  }
  if (util::starts_with(rest, "scancel ")) {
    const auto job_id = kv_i64("JobId");
    if (!job_id) return std::nullopt;
    return job_cancelled(r, *job_id, rest, ctx);
  }
  if (util::contains(rest, "allocated memory exceeds node capacity")) {
    const auto job_id = kv_i64("JobId");
    if (!job_id) return std::nullopt;
    return job_overallocated(r, *job_id, kv_i64("OverallocCnt").value_or(0), ctx);
  }
  if (util::starts_with(rest, "epilog complete ")) {
    const auto job_id = kv_i64("JobId");
    if (!job_id) return std::nullopt;
    r.type = EventType::EpilogueRun;
    r.job_id = *job_id;
    r.detail = ctx.symbols->intern("epilogue complete");
    return r;
  }
  return std::nullopt;
}

/// Torque/PBS dialect: MM/DD/YYYY HH:MM:SS;0008;PBS_Server;Job;<id>.sdb;<payload>
std::optional<LogRecord> parse_torque_line(std::string_view line, const ParseContext& ctx) {
  const auto time = util::parse_torque(line.substr(0, 19));
  if (!time) return std::nullopt;
  // ;<code>;PBS_Server;Job;<id>.sdb;<payload> — split into the five fixed
  // fields in place (the payload keeps any further ';'), with no per-line
  // vector.
  std::array<std::string_view, 5> fields;
  {
    std::string_view rest = line.substr(20);
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t semi = rest.find(';');
      if (semi == std::string_view::npos) return std::nullopt;
      fields[i] = rest.substr(0, semi);
      rest.remove_prefix(semi + 1);
    }
    fields[4] = rest;
  }
  if (fields[1] != "PBS_Server" || fields[2] != "Job") {
    return std::nullopt;
  }
  std::string_view id_field = fields[3];
  const auto dot = id_field.find('.');
  if (dot != std::string_view::npos) id_field = id_field.substr(0, dot);
  const auto job_id = util::parse_i64(id_field);
  if (!job_id) return std::nullopt;
  const std::string_view payload = util::trim(fields[4]);

  LogRecord r;
  r.time = *time;
  r.source = LogSource::Scheduler;
  r.severity = Severity::Info;
  r.job_id = *job_id;

  if (util::starts_with(payload, "Job Run ")) {
    return job_started(r, *job_id, payload, ctx);
  }
  if (const auto exit_field = util::find_kv(payload, "Exit_status")) {
    const int exit_code = static_cast<int>(util::parse_i64(*exit_field).value_or(-1));
    const auto reason = util::find_kv(payload, "Reason");
    return job_end(r, *job_id, exit_code, reason.value_or(std::string_view{}), ctx);
  }
  if (util::starts_with(payload, "Job deleted")) return job_cancelled(r, *job_id, payload, ctx);
  if (util::contains(payload, "allocated memory exceeds node capacity")) {
    const auto count = util::find_kv(payload, "OverallocCnt");
    return job_overallocated(r, *job_id, count ? util::parse_i64(*count).value_or(0) : 0, ctx);
  }
  if (util::starts_with(payload, "Epilogue complete")) {
    r.type = EventType::EpilogueRun;
    r.detail = ctx.symbols->intern("epilogue complete");
    return r;
  }
  return std::nullopt;
}

}  // namespace

std::optional<LogRecord> parse_scheduler_line(std::string_view line, const ParseContext& ctx) {
  if (ctx.symbols == nullptr || ctx.job_updates == nullptr) return std::nullopt;
  // The Torque timestamp puts '/' at 2 and the first ';' at 19.
  if (line.size() > 20 && line[2] == '/' && line[19] == ';') {
    return parse_torque_line(line, ctx);
  }
  return parse_slurm_line(line, ctx);
}

}  // namespace hpcfail::parsers
