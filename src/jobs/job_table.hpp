// Queryable job metadata table, the analysis-side view of the scheduler
// logs.  Built once, from simulated jobs or from the scheduler log's job
// updates folded in log order, and never mutated after; answers the
// correlation queries of Sections III-D/E: "which job ran on this node
// when it failed?" and "which other nodes did that job hold?".
//
// The table in memory is its snapshot layout: 64-byte rows, one string
// pool, the job -> nodes CSR and the node -> jobs CSR.  Saving registers
// borrowed views of those arrays and loading adopts them, so no job owns a
// string or a vector of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "jobs/job.hpp"
#include "platform/ids.hpp"
#include "util/csr.hpp"
#include "util/time.hpp"

namespace hpcfail::jobs {

/// One job: every fixed-width field plus string-pool ids for its three
/// texts, padded explicitly to 64 bytes so rows are byte-reproducible.
/// This is the `jobs.fixed` snapshot row, pinned like LogRecord's layout
/// in store_snapshot.cpp; a change here means a format-version bump.
struct JobRow {
  std::int64_t job_id = 0;
  std::int64_t apid = 0;
  util::TimePoint start;
  util::TimePoint end;
  double mem_per_node_gb = 0.0;
  std::uint32_t user = 0;    ///< string-pool id
  std::uint32_t app = 0;     ///< string-pool id
  std::uint32_t reason = 0;  ///< string-pool id of the scheduler's Reason= field
  std::int32_t exit_code = 0;
  std::uint32_t overallocated_nodes = 0;
  std::uint8_t ended = 0;  ///< end record seen
  std::uint8_t overallocated = 0;
  std::uint8_t cancelled = 0;
  std::uint8_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<JobRow>);
static_assert(sizeof(JobRow) == 64);
static_assert(offsetof(JobRow, start) == 16);
static_assert(offsetof(JobRow, mem_per_node_gb) == 32);
static_assert(offsetof(JobRow, user) == 40);
static_assert(offsetof(JobRow, ended) == 60);

/// One job fact from one scheduler-log line.  `row.job_id` names the job;
/// the other fields `kind` sets are the only ones read.  The texts ride
/// beside the row (its pool ids stay 0) and intern when the table is built.
struct JobUpdate {
  enum class Kind : std::uint8_t {
    Start,         ///< allocation: the whole row, user, app, nodes and reason
    End,           ///< end, exit_code, reason; sets ended
    Cancel,        ///< no field: sets cancelled
    Overallocate,  ///< overallocated_nodes; sets overallocated
  };
  Kind kind = Kind::Start;
  JobRow row;
  std::string user;
  std::string app;
  std::string reason;
  std::vector<platform::NodeId> nodes;
};

class JobTable {
 public:
  JobTable() = default;

  /// Applies `updates` in order, then interns each row's texts and lays out
  /// its nodes in row order, then builds the per-node index.  A start
  /// registers its job, replacing an earlier job with the same id in place
  /// (texts and nodes included); every other kind changes the job
  /// registered under its id, and is ignored when there is none.
  explicit JobTable(std::vector<JobUpdate> updates);

  /// Builds from fully-simulated jobs (the no-text path): one start each.
  [[nodiscard]] static JobTable from_jobs(const std::vector<Job>& jobs);

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] std::span<const JobRow> rows() const noexcept { return rows_; }
  [[nodiscard]] const JobRow* find(std::int64_t job_id) const noexcept;

  /// The text of a row's `user`, `app` or `reason` pool id ("" for id 0).
  [[nodiscard]] std::string_view text(std::uint32_t id) const noexcept;

  /// The nodes `row` held; `row` must be one of rows().
  [[nodiscard]] std::span<const platform::NodeId> nodes(const JobRow& row) const noexcept {
    return nodes_.of(static_cast<std::uint32_t>(&row - rows_.data()));
  }

  /// The job holding `node` at time `t` (allocations don't overlap; the
  /// first match wins). `slack` widens the interval on both sides, since a
  /// node's failure records can trail the job's scheduler end record.
  [[nodiscard]] const JobRow* job_on_node_at(platform::NodeId node, util::TimePoint t,
                                             util::Duration slack = {}) const noexcept;

  /// Registers the table's arrays under `prefix` as borrowed views: the
  /// rows, the string pool, the job -> nodes CSR, and `by_node_` exactly
  /// as built (its per-node runs sort ties arbitrarily, so serializing the
  /// index rather than rebuilding it keeps loaded query results identical).
  /// Only the `.meta` job count is an owned copy.
  void append_sections(util::Sections& out, const std::string& prefix) const;

  /// Adopts the arrays of a table's sections (by_id_ is re-derived — it
  /// is a plain inverse of the rows).  Throws util::SectionError on
  /// out-of-range string ids, node lists or index entries.
  [[nodiscard]] static JobTable from_sections(const util::SectionMap& in,
                                              const std::string& prefix);

 private:
  std::vector<JobRow> rows_;
  /// The string pool: id i spans text_offsets_[i] .. text_offsets_[i + 1]
  /// of text_bytes_; id 0 is "".
  std::string text_bytes_;
  std::vector<std::uint64_t> text_offsets_{0, 0};
  /// row -> the nodes it held, in allocation order.
  util::CsrIndex<platform::NodeId> nodes_{.offsets = {0}, .entries = {}};
  /// node -> indexes of the rows touching it, sorted by start.  One uint32
  /// per (node, job) membership — a week of allocations holds hundreds of
  /// thousands, so this is RSS-sensitive.
  util::CsrIndex<std::uint32_t> by_node_;
  std::unordered_map<std::int64_t, std::size_t> by_id_;
};

}  // namespace hpcfail::jobs
