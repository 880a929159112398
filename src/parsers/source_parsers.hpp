// Per-line parsers for each raw log source; exact inverses of the grammars
// in loggen/renderer.cpp.  Every parser is stateless, so the ingest
// pipeline runs all six on pool workers, one chunk per task.  Every parser
// is total: any malformed line yields nullopt (the property suite fuzzes
// this).  None is noexcept: interning a detail allocates, and an
// allocation failure must reach the pipeline as std::bad_alloc.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "jobs/job_table.hpp"
#include "logmodel/record.hpp"
#include "logmodel/symbol_table.hpp"
#include "platform/topology.hpp"

namespace hpcfail::parsers {

struct ParseContext {
  const platform::Topology* topo = nullptr;
  /// Table detail strings are interned into, straight from the line's
  /// string_views (no per-record allocation).  Parsers yield nullopt when
  /// unset, like topo.  On the streaming path each chunk task points this
  /// at its chunk-local table; StoreBuilder remaps at retire time.
  logmodel::SymbolTable* symbols = nullptr;
  /// Year of the corpus window's first day; syslog timestamps carry none.
  int base_year = 1970;
  /// Month (1..12) of the window's first day.  Syslog months calendar-
  /// earlier than this belong to base_year + 1, so a corpus straddling
  /// New Year dates its post-rollover lines correctly (valid for windows
  /// shorter than 12 months; stateless, hence shard-order independent).
  int base_month = 1;
  /// Where the scheduler parser appends each line's job fact, in line
  /// order.  Like `symbols`, an output the pipeline points at chunk-local
  /// storage; the scheduler parser yields nullopt when unset.
  std::vector<jobs::JobUpdate>* job_updates = nullptr;
};

/// console / consumer: ISO_TS <nodename> [<cname>] (kernel|hwerrd): <payload>
[[nodiscard]] std::optional<logmodel::LogRecord> parse_console_line(
    std::string_view line, const ParseContext& ctx);

/// messages: SYSLOG_TS <nodename> nhc[pid]: <payload>
[[nodiscard]] std::optional<logmodel::LogRecord> parse_messages_line(
    std::string_view line, const ParseContext& ctx);

/// controller: ISO_TS <cname> cc: <payload>
[[nodiscard]] std::optional<logmodel::LogRecord> parse_controller_line(
    std::string_view line, const ParseContext& ctx);

/// erd: ISO_TS erd ev=<event> src=<cname> [node=<nodename>] <detail>
[[nodiscard]] std::optional<logmodel::LogRecord> parse_erd_line(
    std::string_view line, const ParseContext& ctx);

/// scheduler: Slurm (ISO_TS slurmctld: <payload>) or Torque
/// (MM/DD/YYYY HH:MM:SS;<code>;PBS_Server;Job;<id>.sdb;<payload>), auto-
/// detected.  Allocation, end, cancel and over-allocation lines also append
/// one update to ctx.job_updates; jobs::JobTable folds them in log order.
[[nodiscard]] std::optional<logmodel::LogRecord> parse_scheduler_line(
    std::string_view line, const ParseContext& ctx);

}  // namespace hpcfail::parsers
