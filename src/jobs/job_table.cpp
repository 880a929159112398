#include "jobs/job_table.hpp"

#include <algorithm>

namespace hpcfail::jobs {

namespace {

/// node -> indexes of the rows touching it, sorted by start.  CSR build
/// over the contiguous job -> nodes entries: count per node, prefix-sum
/// into offsets, fill row indexes (see util/csr.hpp).
util::CsrIndex<std::uint32_t> node_index(std::span<const JobRow> rows,
                                         const util::CsrIndex<platform::NodeId>& nodes) {
  util::CsrIndex<std::uint32_t> by_node;
  // Branch-free max pass first (it vectorizes), then the count pass against
  // a correctly-sized table; fusing the two costs a data-dependent branch
  // per (job, node) pair and measures slower.
  std::uint32_t node_keys = 0;
  for (const auto node : nodes.entries) node_keys = std::max(node_keys, node.value + 1);
  if (node_keys == 0) return by_node;
  by_node.offsets.assign(std::size_t{node_keys} + 1, 0);
  for (const auto node : nodes.entries) ++by_node.offsets[node.value + 1];
  for (std::size_t k = 1; k < by_node.offsets.size(); ++k) {
    by_node.offsets[k] += by_node.offsets[k - 1];
  }
  by_node.entries.resize(by_node.offsets.back());
  std::vector<std::uint32_t> cursor = by_node.offsets;
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    for (const auto node : nodes.of(i)) by_node.entries[cursor[node.value]++] = i;
  }
  // The fill above visits rows in order, so when the rows are start-ordered
  // (the normal case: allocation records appear in the log at their start
  // time) every run is sorted by construction, and one pass over the rows
  // proves it without touching the (much larger) entries array.
  if (std::ranges::is_sorted(rows, {}, &JobRow::start)) return by_node;
  const auto start_less = [rows](std::uint32_t a, std::uint32_t b) {
    return rows[a].start < rows[b].start;
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
  rows_.reserve(starts);
  by_id_.reserve(starts);
  // The fold moves no text or node list: each row remembers the update
  // that started it (its user, app and nodes) and the one whose reason it
  // took last.
  struct TextSource {
    std::size_t start;
    std::size_t reason;
  };
  std::vector<TextSource> sources;
  sources.reserve(starts);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const JobUpdate& u = updates[i];
    if (u.kind == JobUpdate::Kind::Start) {
      const auto [it, inserted] = by_id_.try_emplace(u.row.job_id, rows_.size());
      if (inserted) {
        rows_.push_back(u.row);
        sources.push_back({i, i});
      } else {
        rows_[it->second] = u.row;
        sources[it->second] = {i, i};
      }
      continue;
    }
    const auto it = by_id_.find(u.row.job_id);
    if (it == by_id_.end()) continue;
    JobRow& row = rows_[it->second];
    switch (u.kind) {
      case JobUpdate::Kind::End:
        row.end = u.row.end;
        row.exit_code = u.row.exit_code;
        row.ended = 1;
        sources[it->second].reason = i;
        break;
      case JobUpdate::Kind::Cancel:
        row.cancelled = 1;
        break;
      case JobUpdate::Kind::Overallocate:
        row.overallocated = 1;
        row.overallocated_nodes = u.row.overallocated_nodes;
        break;
      case JobUpdate::Kind::Start:
        break;
    }
  }

  // Only now intern, row by row (user, app, reason), and lay the node lists
  // out in row order: interning during the fold would give a reason an id
  // ahead of a later job's user, and the pool is snapshot bytes.
  {
    std::unordered_map<std::string_view, std::uint32_t> ids{{"", 0}};  // views into `updates`
    const auto intern = [&](std::string_view text) {
      const auto [it, inserted] =
          ids.try_emplace(text, static_cast<std::uint32_t>(text_offsets_.size() - 1));
      if (inserted) {
        text_bytes_ += text;
        text_offsets_.push_back(text_bytes_.size());
      }
      return it->second;
    };
    std::size_t memberships = 0;
    for (const TextSource& s : sources) memberships += updates[s.start].nodes.size();
    nodes_.offsets.reserve(rows_.size() + 1);
    nodes_.entries.reserve(memberships);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const JobUpdate& start = updates[sources[r].start];
      rows_[r].user = intern(start.user);
      rows_[r].app = intern(start.app);
      rows_[r].reason = intern(updates[sources[r].reason].reason);
      nodes_.entries.insert(nodes_.entries.end(), start.nodes.begin(), start.nodes.end());
      nodes_.offsets.push_back(static_cast<std::uint32_t>(nodes_.entries.size()));
    }
  }
  updates = {};  // release the folded list before the index allocates
  by_node_ = node_index(rows_, nodes_);
}

JobTable JobTable::from_jobs(const std::vector<Job>& jobs) {
  std::vector<JobUpdate> starts(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    JobUpdate& u = starts[i];
    u.row.job_id = j.job_id;
    u.row.apid = j.apid;
    u.row.start = j.start;
    u.row.end = j.end;
    u.row.mem_per_node_gb = j.mem_per_node_gb;
    u.row.exit_code = j.exit_code();
    u.row.overallocated_nodes = j.overallocated_nodes;
    u.row.ended = 1;
    u.row.overallocated = j.outcome == JobOutcome::Overallocated ? 1 : 0;
    u.row.cancelled = j.outcome == JobOutcome::UserCancelled ? 1 : 0;
    u.user = j.user;
    u.app = j.app_name;
    u.reason = to_string(j.outcome);
    u.nodes = j.nodes;
  }
  return JobTable(std::move(starts));
}

const JobRow* JobTable::find(std::int64_t job_id) const noexcept {
  const auto it = by_id_.find(job_id);
  return it == by_id_.end() ? nullptr : &rows_[it->second];
}

std::string_view JobTable::text(std::uint32_t id) const noexcept {
  if (std::size_t{id} + 1 >= text_offsets_.size()) return {};
  return std::string_view(text_bytes_)
      .substr(text_offsets_[id], text_offsets_[id + 1] - text_offsets_[id]);
}

const JobRow* JobTable::job_on_node_at(platform::NodeId node, util::TimePoint t,
                                       util::Duration slack) const noexcept {
  for (const std::uint32_t idx : by_node_.of(node.value)) {
    const JobRow& j = rows_[idx];
    if (j.start - slack <= t && t < j.end + slack) return &j;
    if (j.start - slack > t) break;  // sorted by start; no later job matches
  }
  return nullptr;
}

void JobTable::append_sections(util::Sections& out, const std::string& prefix) const {
  out.add_scalar(prefix + ".meta", static_cast<std::uint64_t>(rows_.size()));
  out.add_vector(prefix + ".fixed", rows_);
  out.add(prefix + ".strings.bytes", std::as_bytes(std::span<const char>(text_bytes_)));
  out.add_vector(prefix + ".strings.offsets", text_offsets_);
  nodes_.append_sections(out, prefix + ".nodes");
  by_node_.append_sections(out, prefix + ".by_node");
}

JobTable JobTable::from_sections(const util::SectionMap& in, const std::string& prefix) {
  JobTable table;
  const auto meta = in.scalar_of<std::uint64_t>(prefix + ".meta");
  table.rows_ = in.vector_of<JobRow>(prefix + ".fixed");
  if (meta != table.rows_.size()) {
    throw util::SectionError(prefix + ".fixed",
                             "meta declares " + std::to_string(meta) +
                                 " jobs, section holds " + std::to_string(table.rows_.size()));
  }

  const auto bytes = in.require(prefix + ".strings.bytes");
  table.text_offsets_ = in.vector_of<std::uint64_t>(prefix + ".strings.offsets");
  const auto& offsets = table.text_offsets_;
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != bytes.size()) {
    throw util::SectionError(prefix + ".strings.offsets",
                             "offsets do not span the string payload exactly");
  }
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i + 1] < offsets[i]) {
      throw util::SectionError(prefix + ".strings.offsets",
                               "offsets decrease at id " + std::to_string(i));
    }
  }
  if (offsets.size() < 2 || offsets[1] != 0) {
    throw util::SectionError(prefix + ".strings.bytes", "id 0 must be the empty string");
  }
  table.text_bytes_.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  const std::size_t strings = offsets.size() - 1;
  const auto check_text = [&](std::uint32_t id, const char* field) {
    if (id >= strings) {
      throw util::SectionError(prefix + ".fixed",
                               std::string(field) + " string id " + std::to_string(id) +
                                   " out of range for " + std::to_string(strings) +
                                   " strings");
    }
  };

  table.nodes_ = util::CsrIndex<platform::NodeId>::from_sections(in, prefix + ".nodes");
  const std::size_t runs = table.nodes_.offsets.empty() ? 0 : table.nodes_.offsets.size() - 1;
  if (runs != table.rows_.size()) {
    throw util::SectionError(prefix + ".nodes.offsets", "expected one node run per job");
  }

  table.by_id_.reserve(table.rows_.size());
  for (std::size_t i = 0; i < table.rows_.size(); ++i) {
    const JobRow& row = table.rows_[i];
    check_text(row.user, "user");
    check_text(row.app, "app");
    check_text(row.reason, "reason");
    table.by_id_[row.job_id] = i;
  }
  table.by_node_ = util::CsrIndex<std::uint32_t>::from_sections(in, prefix + ".by_node");
  for (const std::uint32_t entry : table.by_node_.entries) {
    if (entry >= table.rows_.size()) {
      throw util::SectionError(prefix + ".by_node.entries",
                               "entry " + std::to_string(entry) + " out of range for " +
                                   std::to_string(table.rows_.size()) + " jobs");
    }
  }
  return table;
}

}  // namespace hpcfail::jobs
