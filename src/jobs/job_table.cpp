#include "jobs/job_table.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>

namespace hpcfail::jobs {

namespace {

// On-disk job row: every fixed-width JobInfo field plus string-pool ids
// for the three texts, padded explicitly to 64 bytes so rows are
// byte-reproducible.  Pinned like LogRecord's layout in store_snapshot.cpp;
// a change here means a format-version bump.
struct JobFixed {
  std::int64_t job_id = 0;
  std::int64_t apid = 0;
  std::int64_t start_usec = 0;
  std::int64_t end_usec = 0;
  double mem_per_node_gb = 0.0;
  std::uint32_t user = 0;    ///< string-pool id
  std::uint32_t app = 0;     ///< string-pool id
  std::uint32_t reason = 0;  ///< string-pool id
  std::int32_t exit_code = 0;
  std::uint32_t overallocated_nodes = 0;
  std::uint8_t ended = 0;
  std::uint8_t overallocated = 0;
  std::uint8_t cancelled = 0;
  std::uint8_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<JobFixed>);
static_assert(sizeof(JobFixed) == 64);
static_assert(offsetof(JobFixed, mem_per_node_gb) == 32);
static_assert(offsetof(JobFixed, user) == 40);
static_assert(offsetof(JobFixed, ended) == 60);

// Minimal string pool for the job texts (the jobs layer deliberately does
// not link logmodel, so it cannot reuse SymbolTable).  Serialized exactly
// like SymbolTable's sections: concatenated bytes + uint64 fence offsets,
// id 0 reserved for "".
struct StringPool {
  std::vector<std::string> strings{{}};
  std::map<std::string, std::uint32_t, std::less<>> ids{{std::string{}, 0}};

  std::uint32_t intern(const std::string& text) {
    const auto it = ids.find(text);
    if (it != ids.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(strings.size());
    strings.push_back(text);
    ids.emplace(text, id);
    return id;
  }

  void append_sections(util::Sections& out, const std::string& prefix) const {
    std::vector<std::byte> bytes;
    std::vector<std::uint64_t> offsets;
    offsets.reserve(strings.size() + 1);
    offsets.push_back(0);
    for (const std::string& s : strings) {
      const auto* data = reinterpret_cast<const std::byte*>(s.data());
      bytes.insert(bytes.end(), data, data + s.size());
      offsets.push_back(bytes.size());
    }
    out.add_owned(prefix + ".bytes", std::move(bytes));
    std::vector<std::byte> offset_bytes(offsets.size() * sizeof(std::uint64_t));
    std::memcpy(offset_bytes.data(), offsets.data(), offset_bytes.size());
    out.add_owned(prefix + ".offsets", std::move(offset_bytes));
  }

  [[nodiscard]] static std::vector<std::string> strings_from_sections(
      const util::SectionMap& in, const std::string& prefix) {
    const auto offsets = in.vector_of<std::uint64_t>(prefix + ".offsets");
    const auto bytes = in.require(prefix + ".bytes");
    if (offsets.empty() || offsets.front() != 0 || offsets.back() != bytes.size()) {
      throw util::SectionError(prefix + ".offsets",
                               "offsets do not span the string payload exactly");
    }
    std::vector<std::string> out;
    out.reserve(offsets.size() - 1);
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      if (offsets[i + 1] < offsets[i]) {
        throw util::SectionError(prefix + ".offsets",
                                 "offsets decrease at id " + std::to_string(i));
      }
      out.emplace_back(reinterpret_cast<const char*>(bytes.data()) + offsets[i],
                       static_cast<std::size_t>(offsets[i + 1] - offsets[i]));
    }
    if (!out.front().empty()) {
      throw util::SectionError(prefix + ".bytes", "id 0 must be the empty string");
    }
    return out;
  }
};

/// node -> indexes (into `jobs`) of jobs touching it, sorted by start.
/// CSR build: count per node, prefix-sum into offsets, fill job indexes,
/// then sort each node's run by start time (see util/csr.hpp).
util::CsrIndex<std::uint32_t> node_index(const std::vector<JobInfo>& jobs) {
  util::CsrIndex<std::uint32_t> by_node;
  // Branch-free max pass first (it vectorizes), then the count pass against
  // a correctly-sized table; fusing the two costs a data-dependent branch
  // per (job, node) pair and measures slower.
  std::uint32_t node_keys = 0;
  for (const JobInfo& j : jobs) {
    for (const auto node : j.nodes) node_keys = std::max(node_keys, node.value + 1);
  }
  if (node_keys == 0) return by_node;
  by_node.offsets.assign(std::size_t{node_keys} + 1, 0);
  for (const JobInfo& j : jobs) {
    for (const auto node : j.nodes) ++by_node.offsets[node.value + 1];
  }
  for (std::size_t k = 1; k < by_node.offsets.size(); ++k) {
    by_node.offsets[k] += by_node.offsets[k - 1];
  }
  by_node.entries.resize(by_node.offsets.back());
  std::vector<std::uint32_t> cursor = by_node.offsets;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (const auto node : jobs[i].nodes) {
      by_node.entries[cursor[node.value]++] = static_cast<std::uint32_t>(i);
    }
  }
  // Scheduler logs are time-ordered, so the fill above (ascending job
  // index) usually leaves every run already start-sorted; detecting that
  // with one linear pass is far cheaper than 5k+ small sorts whose
  // comparator chases cold JobInfo structs.  The flat starts array keeps
  // the comparator on 8-byte rows when a sort IS needed.
  std::vector<std::int64_t> starts;
  starts.reserve(jobs.size());
  for (const JobInfo& j : jobs) starts.push_back(j.start.usec);
  // When the whole job list is start-ordered (the normal case: allocation
  // records appear in the log at their start time), every run is sorted
  // by construction, and one pass over the job list proves it without
  // touching the (much larger) entries array at all.
  if (std::is_sorted(starts.begin(), starts.end())) return by_node;
  const auto start_less = [&starts](std::uint32_t a, std::uint32_t b) {
    return starts[a] < starts[b];
  };
  for (std::uint32_t k = 0; k < node_keys; ++k) {
    const auto begin = by_node.entries.begin() + by_node.offsets[k];
    const auto end = by_node.entries.begin() + by_node.offsets[k + 1];
    if (!std::is_sorted(begin, end, start_less)) std::sort(begin, end, start_less);
  }
  return by_node;
}

}  // namespace

JobTable::JobTable(std::vector<JobUpdate> updates) {
  const auto starts = static_cast<std::size_t>(
      std::count_if(updates.begin(), updates.end(),
                    [](const JobUpdate& u) { return u.kind == JobUpdate::Kind::Start; }));
  jobs_.reserve(starts);
  by_id_.reserve(starts);
  for (JobUpdate& u : updates) {
    if (u.kind == JobUpdate::Kind::Start) {
      const auto [it, inserted] = by_id_.try_emplace(u.info.job_id, jobs_.size());
      if (inserted) {
        jobs_.push_back(std::move(u.info));
      } else {
        jobs_[it->second] = std::move(u.info);
      }
      continue;
    }
    const auto it = by_id_.find(u.info.job_id);
    if (it == by_id_.end()) continue;
    JobInfo& job = jobs_[it->second];
    switch (u.kind) {
      case JobUpdate::Kind::End:
        job.end = u.info.end;
        job.exit_code = u.info.exit_code;
        job.end_reason = std::move(u.info.end_reason);
        job.ended = true;
        break;
      case JobUpdate::Kind::Cancel:
        job.cancelled = true;
        break;
      case JobUpdate::Kind::Overallocate:
        job.overallocated = true;
        job.overallocated_nodes = u.info.overallocated_nodes;
        break;
      case JobUpdate::Kind::Start:
        break;
    }
  }
  updates = {};  // release the folded list before the index allocates
  by_node_ = node_index(jobs_);
}

JobTable JobTable::from_jobs(const std::vector<Job>& jobs) {
  std::vector<JobUpdate> starts(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    JobInfo& info = starts[i].info;
    info.job_id = j.job_id;
    info.apid = j.apid;
    info.user = j.user;
    info.app_name = j.app_name;
    info.start = j.start;
    info.end = j.end;
    info.mem_per_node_gb = j.mem_per_node_gb;
    info.nodes = j.nodes;
    info.exit_code = j.exit_code();
    info.end_reason = std::string(to_string(j.outcome));
    info.ended = true;
    info.overallocated = j.outcome == JobOutcome::Overallocated;
    info.overallocated_nodes = j.overallocated_nodes;
    info.cancelled = j.outcome == JobOutcome::UserCancelled;
  }
  return JobTable(std::move(starts));
}

const JobInfo* JobTable::find(std::int64_t job_id) const noexcept {
  const auto it = by_id_.find(job_id);
  return it == by_id_.end() ? nullptr : &jobs_[it->second];
}

const JobInfo* JobTable::job_on_node_at(platform::NodeId node, util::TimePoint t,
                                        util::Duration slack) const noexcept {
  for (const std::uint32_t idx : by_node_.of(node.value)) {
    const JobInfo& j = jobs_[idx];
    if (j.start - slack <= t && t < j.end + slack) return &j;
    if (j.start - slack > t) break;  // sorted by start; no later job matches
  }
  return nullptr;
}

void JobTable::append_sections(util::Sections& out, const std::string& prefix) const {
  StringPool pool;
  std::vector<JobFixed> fixed;
  fixed.reserve(jobs_.size());
  util::CsrIndex<platform::NodeId> node_lists;
  node_lists.offsets.reserve(jobs_.size() + 1);
  node_lists.offsets.push_back(0);
  for (const JobInfo& j : jobs_) {
    JobFixed row;
    row.job_id = j.job_id;
    row.apid = j.apid;
    row.start_usec = j.start.usec;
    row.end_usec = j.end.usec;
    row.mem_per_node_gb = j.mem_per_node_gb;
    row.user = pool.intern(j.user);
    row.app = pool.intern(j.app_name);
    row.reason = pool.intern(j.end_reason);
    row.exit_code = j.exit_code;
    row.overallocated_nodes = j.overallocated_nodes;
    row.ended = j.ended ? 1 : 0;
    row.overallocated = j.overallocated ? 1 : 0;
    row.cancelled = j.cancelled ? 1 : 0;
    fixed.push_back(row);
    node_lists.entries.insert(node_lists.entries.end(), j.nodes.begin(), j.nodes.end());
    node_lists.offsets.push_back(static_cast<std::uint32_t>(node_lists.entries.size()));
  }

  const auto meta = static_cast<std::uint64_t>(jobs_.size());
  out.add_scalar(prefix + ".meta", meta);
  std::vector<std::byte> fixed_bytes(fixed.size() * sizeof(JobFixed));
  if (!fixed_bytes.empty()) {
    std::memcpy(fixed_bytes.data(), fixed.data(), fixed_bytes.size());
  }
  out.add_owned(prefix + ".fixed", std::move(fixed_bytes));
  pool.append_sections(out, prefix + ".strings");
  // node_lists and by_node_ sections borrow from locals/members; the
  // owned copy below keeps the CSR alive inside `out`.
  {
    std::vector<std::byte> off(node_lists.offsets.size() * sizeof(std::uint32_t));
    std::memcpy(off.data(), node_lists.offsets.data(), off.size());
    out.add_owned(prefix + ".nodes.offsets", std::move(off));
    std::vector<std::byte> ent(node_lists.entries.size() * sizeof(platform::NodeId));
    if (!ent.empty()) std::memcpy(ent.data(), node_lists.entries.data(), ent.size());
    out.add_owned(prefix + ".nodes.entries", std::move(ent));
  }
  by_node_.append_sections(out, prefix + ".by_node");
}

JobTable JobTable::from_sections(const util::SectionMap& in, const std::string& prefix) {
  const auto meta = in.scalar_of<std::uint64_t>(prefix + ".meta");
  const auto fixed = in.vector_of<JobFixed>(prefix + ".fixed");
  if (meta != fixed.size()) {
    throw util::SectionError(prefix + ".fixed",
                             "meta declares " + std::to_string(meta) +
                                 " jobs, section holds " + std::to_string(fixed.size()));
  }
  const auto strings = StringPool::strings_from_sections(in, prefix + ".strings");
  const auto node_lists =
      util::CsrIndex<platform::NodeId>::from_sections(in, prefix + ".nodes");
  if (!node_lists.offsets.empty() && node_lists.offsets.size() != fixed.size() + 1) {
    throw util::SectionError(prefix + ".nodes.offsets",
                             "expected one node run per job");
  }
  if (node_lists.offsets.empty() && !fixed.empty()) {
    throw util::SectionError(prefix + ".nodes.offsets", "missing node runs");
  }

  JobTable table;
  table.jobs_.reserve(fixed.size());
  const auto text_of = [&](std::uint32_t id, const char* field) -> const std::string& {
    if (id >= strings.size()) {
      throw util::SectionError(prefix + ".fixed",
                               std::string(field) + " string id " + std::to_string(id) +
                                   " out of range for " + std::to_string(strings.size()) +
                                   " strings");
    }
    return strings[id];
  };
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    const JobFixed& row = fixed[i];
    JobInfo info;
    info.job_id = row.job_id;
    info.apid = row.apid;
    info.user = text_of(row.user, "user");
    info.app_name = text_of(row.app, "app");
    info.start = util::TimePoint{row.start_usec};
    info.end = util::TimePoint{row.end_usec};
    info.mem_per_node_gb = row.mem_per_node_gb;
    const auto nodes = node_lists.of(static_cast<std::uint32_t>(i));
    info.nodes.assign(nodes.begin(), nodes.end());
    info.exit_code = row.exit_code;
    info.end_reason = text_of(row.reason, "reason");
    info.ended = row.ended != 0;
    info.overallocated = row.overallocated != 0;
    info.overallocated_nodes = row.overallocated_nodes;
    info.cancelled = row.cancelled != 0;
    table.by_id_[info.job_id] = table.jobs_.size();
    table.jobs_.push_back(std::move(info));
  }
  table.by_node_ = util::CsrIndex<std::uint32_t>::from_sections(in, prefix + ".by_node");
  for (const std::uint32_t entry : table.by_node_.entries) {
    if (entry >= table.jobs_.size()) {
      throw util::SectionError(prefix + ".by_node.entries",
                               "entry " + std::to_string(entry) +
                                   " out of range for " +
                                   std::to_string(table.jobs_.size()) + " jobs");
    }
  }
  return table;
}

}  // namespace hpcfail::jobs
