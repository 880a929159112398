// Queryable job metadata table, the analysis-side view of the scheduler
// logs.  Built once, from simulated jobs or from the scheduler log's job
// updates folded in log order, and never mutated after; answers the
// correlation queries of Sections III-D/E: "which job ran on this node
// when it failed?" and "which other nodes did that job hold?".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "jobs/job.hpp"
#include "platform/ids.hpp"
#include "util/csr.hpp"
#include "util/time.hpp"

namespace hpcfail::jobs {

struct JobInfo {
  std::int64_t job_id = 0;
  std::int64_t apid = 0;
  std::string user;
  std::string app_name;
  util::TimePoint start;
  util::TimePoint end;
  double mem_per_node_gb = 0.0;
  std::vector<platform::NodeId> nodes;
  int exit_code = 0;
  std::string end_reason;   ///< scheduler Reason= field
  bool ended = false;       ///< end record seen
  bool overallocated = false;
  std::uint32_t overallocated_nodes = 0;
  bool cancelled = false;
};

/// One job fact from one scheduler-log line.  `info.job_id` names the job;
/// the other fields `kind` sets are the only ones read.
struct JobUpdate {
  enum class Kind : std::uint8_t {
    Start,         ///< allocation: the whole JobInfo
    End,           ///< end, exit_code, end_reason
    Cancel,        ///< no field: sets cancelled
    Overallocate,  ///< overallocated_nodes; sets overallocated
  };
  Kind kind = Kind::Start;
  JobInfo info;
};

class JobTable {
 public:
  JobTable() = default;

  /// Applies `updates` in order, then builds the per-node index.  A start
  /// registers its job, replacing an earlier job with the same id in
  /// place; every other kind changes the job registered under its id, and
  /// is ignored when there is none.
  explicit JobTable(std::vector<JobUpdate> updates);

  /// Builds from fully-simulated jobs (the no-text path): one start each.
  [[nodiscard]] static JobTable from_jobs(const std::vector<Job>& jobs);

  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] const std::vector<JobInfo>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] const JobInfo* find(std::int64_t job_id) const noexcept;

  /// The job holding `node` at time `t` (allocations don't overlap; the
  /// first match wins). `slack` widens the interval on both sides, since a
  /// node's failure records can trail the job's scheduler end record.
  [[nodiscard]] const JobInfo* job_on_node_at(platform::NodeId node, util::TimePoint t,
                                              util::Duration slack = {}) const noexcept;

  /// Registers the table as flat sections under `prefix`: fixed-width
  /// 64-byte job rows, an interned string pool for user/app/reason texts,
  /// the job -> nodes lists as a CSR, and `by_node_` exactly as built
  /// (its per-node runs sort ties arbitrarily, so serializing the index
  /// rather than rebuilding it keeps loaded query results identical).
  void append_sections(util::Sections& out, const std::string& prefix) const;

  /// Rebuilds a table from its sections (by_id_ is re-derived —
  /// it is a plain inverse of the job rows).  Throws util::SectionError on
  /// out-of-range string ids, node lists or index entries.
  [[nodiscard]] static JobTable from_sections(const util::SectionMap& in,
                                              const std::string& prefix);

 private:
  std::vector<JobInfo> jobs_;
  std::unordered_map<std::int64_t, std::size_t> by_id_;
  /// node -> indexes (into jobs_) of jobs touching it, sorted by start.
  /// One uint32 per (node, job) membership — a week of allocations holds
  /// hundreds of thousands, so this is RSS-sensitive.
  util::CsrIndex<std::uint32_t> by_node_;
};

}  // namespace hpcfail::jobs
