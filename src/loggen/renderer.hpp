// Renders structured records into raw log-file lines in the dialects of the
// system being simulated, and whole jobs into scheduler-log line groups.
//
// Line grammars (all timestamps UTC):
//   console     ISO_TS <nodename> [<cname>] kernel: <payload> [jobid=N]
//   messages    SYSLOG_TS <nodename> nhc[pid]: <payload> [jobid=N]
//   consumer    ISO_TS <nodename> [<cname>] hwerrd: <payload>
//   controller  ISO_TS <cname> cc: <payload> [value=V]
//   erd         ISO_TS erd ev=<event> src=<cname> [node=<nodename>] <detail>
//   scheduler   Slurm:  ISO_TS slurmctld: <payload>
//               Torque: MM/DD/YYYY HH:MM:SS;0008;PBS_Server;Job;<id>.sdb;<payload>
//
// The parsers in src/parsers invert these grammars exactly; the round-trip
// property is tested in tests/roundtrip_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jobs/job.hpp"
#include "logmodel/record.hpp"
#include "logmodel/symbol_table.hpp"
#include "platform/system_config.hpp"
#include "platform/topology.hpp"

namespace hpcfail::loggen {

class LogRenderer {
 public:
  /// `symbols` resolves every record's detail Symbol and must outlive the
  /// renderer (it is the table the records were emitted through).
  LogRenderer(const platform::Topology& topo, platform::SchedulerKind scheduler,
              const logmodel::SymbolTable& symbols);

  /// Appends one record as a single line (no trailing newline). Scheduler-
  /// source records render via the job grammar without a node list; jobs
  /// render through append_job_line.
  void append(std::string& out, const logmodel::LogRecord& r) const;
  [[nodiscard]] std::string render(const logmodel::LogRecord& r) const {
    std::string line;
    append(line, r);
    return line;
  }

  /// The scheduler-log lines of a job, in emission order: allocation, an
  /// over-allocation or cancellation event when the outcome has one, end,
  /// epilogue.
  enum class JobLine : std::uint8_t { Allocate, Overallocated, Cancelled, End, Epilogue };
  static constexpr std::uint8_t kJobLineKinds = 5;

  /// Event time of `line` for `job`, or nullopt when the job's outcome has
  /// no such line.  Torque timestamps do not sort lexically, so the corpus
  /// writer sorts scheduler lines by this time.
  [[nodiscard]] static std::optional<util::TimePoint> job_line_time(const jobs::Job& job,
                                                                    JobLine line) noexcept;

  /// Appends one scheduler-log line of `job` (no trailing newline) in the
  /// dialect of the system's scheduler.  Non-const: the node list reuses a
  /// scratch bitset.
  void append_job_line(std::string& out, const jobs::Job& job, JobLine line);

 private:
  void append_console(std::string& out, const logmodel::LogRecord& r) const;
  void append_messages(std::string& out, const logmodel::LogRecord& r) const;
  void append_controller(std::string& out, const logmodel::LogRecord& r) const;
  void append_erd(std::string& out, const logmodel::LogRecord& r) const;
  void append_scheduler(std::string& out, const logmodel::LogRecord& r) const;
  /// cname of the record's node, else its blade, else its cabinet, else
  /// `fallback`.
  void append_component(std::string& out, const logmodel::LogRecord& r,
                        std::string_view fallback) const;
  void append_alloc_fields(std::string& out, const jobs::Job& job);

  const platform::Topology& topo_;
  platform::SchedulerKind scheduler_;
  const logmodel::SymbolTable& symbols_;
  std::vector<std::uint64_t> node_bits_;  ///< append_node_list scratch
};

/// Appends the kernel payload for an internal event type (shared with the
/// consumer grammar).  `symbols` resolves r.detail.
void internal_payload(std::string& out, const logmodel::LogRecord& r,
                      const logmodel::SymbolTable& symbols);

}  // namespace hpcfail::loggen
