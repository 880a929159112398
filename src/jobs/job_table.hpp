// Queryable job metadata table, the analysis-side view of the scheduler
// logs.  Built either directly from simulated jobs or incrementally by the
// scheduler-log parser; answers the correlation queries of Sections III-D/E:
// "which job ran on this node when it failed?" and "which other nodes did
// that job hold?".
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

class JobTable {
 public:
  JobTable() = default;

  /// Builds from fully-simulated jobs (the no-text path).
  [[nodiscard]] static JobTable from_jobs(const std::vector<Job>& jobs);

  // --- incremental construction (parser path) ---
  /// Registers an allocation; replaces any previous entry with the id.
  void add_start(JobInfo info);
  /// Records the end of a job; ignored when the id is unknown.
  void add_end(std::int64_t job_id, util::TimePoint end, int exit_code,
               std::string reason);
  void mark_overallocated(std::int64_t job_id, std::uint32_t node_count);
  void mark_cancelled(std::int64_t job_id);
  /// Builds the per-node interval index. Call once after construction.
  void finalize();

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
  /// The table must be finalized.
  void append_sections(util::Sections& out, const std::string& prefix) const;

  /// Rebuilds a finalized table from its sections (by_id_ is re-derived —
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
  bool finalized_ = false;
};

}  // namespace hpcfail::jobs
