#include "logmodel/log_store.hpp"

#include <algorithm>
#include <compare>
#include <iterator>
#include <stdexcept>
#include <string>

#include "util/trace.hpp"

namespace hpcfail::logmodel {

namespace {
bool time_less(const LogRecord& a, const LogRecord& b) noexcept { return a.time < b.time; }

/// One appended row's entry in a CSR index; sorts by key, then row.
struct KeyedRow {
  std::uint32_t key = 0;
  std::uint32_t row = 0;
  friend auto operator<=>(const KeyedRow&, const KeyedRow&) = default;
};

/// The index build_indexes() makes over base rows + appended rows, given
/// that every appended row is at or after every base row in time: each
/// key's run is its base run followed by its appended rows.  Offsets shift
/// by the running count of appended entries with smaller keys; entries are
/// bulk-copied between the insertion points.  `fresh` is sorted.  The key
/// space is the base's, grown for fresh keys past it and to at least
/// `min_keys`; zero keys is the empty index.
util::CsrIndex<std::uint32_t> splice(const util::CsrIndex<std::uint32_t>& base,
                                     const std::vector<KeyedRow>& fresh,
                                     std::size_t min_keys = 0) {
  std::size_t keys = std::max(min_keys, base.offsets.empty() ? 0 : base.offsets.size() - 1);
  if (!fresh.empty()) keys = std::max(keys, std::size_t{fresh.back().key} + 1);
  util::CsrIndex<std::uint32_t> out;
  if (keys == 0) return out;
  const auto base_end = static_cast<std::uint32_t>(base.entries.size());
  // Where key k's base run starts; keys past the base's range start at its end.
  const auto base_start = [&](std::size_t k) {
    return k < base.offsets.size() ? base.offsets[k] : base_end;
  };
  out.offsets.resize(keys + 1);
  std::size_t below = 0;  // fresh entries with key < k
  for (std::size_t k = 0; k <= keys; ++k) {
    while (below < fresh.size() && fresh[below].key < k) ++below;
    out.offsets[k] = base_start(k) + static_cast<std::uint32_t>(below);
  }
  out.entries.resize(base.entries.size() + fresh.size());
  auto dst = out.entries.begin();
  std::uint32_t copied = 0;
  for (const KeyedRow& f : fresh) {
    const std::uint32_t run_end = base_start(std::size_t{f.key} + 1);
    dst = std::copy(base.entries.begin() + copied, base.entries.begin() + run_end, dst);
    copied = run_end;
    *dst++ = f.row;
  }
  std::copy(base.entries.begin() + copied, base.entries.end(), dst);
  return out;
}
}  // namespace

LogStore::LogStore(std::vector<LogRecord> records, SymbolTable symbols)
    : records_(std::move(records)), symbols_(std::move(symbols)) {
  std::stable_sort(records_.begin(), records_.end(), time_less);
  build_indexes();
}

LogStore LogStore::from_sorted(std::vector<LogRecord> records, SymbolTable symbols) {
  // A violated precondition here poisons every later binary search over
  // the time column, so it fails loud in every build — release included —
  // instead of an assert that vanishes under NDEBUG.
  const auto breach = std::is_sorted_until(records.begin(), records.end(), time_less);
  if (breach != records.end()) {
    throw std::logic_error(
        "LogStore::from_sorted: records are not time-ordered (record " +
        std::to_string(breach - records.begin()) + " moves backwards from " +
        std::to_string((breach - 1)->time.usec) + " to " +
        std::to_string(breach->time.usec) + " usec)");
  }
  LogStore store;
  store.records_ = std::move(records);
  store.symbols_ = std::move(symbols);
  store.build_indexes();
  return store;
}

LogStore LogStore::extend(const LogStore& base, std::vector<LogRecord> fresh,
                          SymbolTable symbols) {
  util::TraceSpan span("hpcfail.store.extend");
  std::stable_sort(fresh.begin(), fresh.end(), time_less);
  const std::vector<LogRecord>& rows = base.records_;
  LogStore out;
  out.symbols_ = std::move(symbols);
  out.records_.reserve(rows.size() + fresh.size());

  if (!rows.empty() && !fresh.empty() && time_less(fresh.front(), rows.back())) {
    // Fresh records interleave history: a linear merge (base first on
    // ties, as a stable sort of base ++ fresh orders them), then the
    // ordinary index build.
    std::merge(rows.begin(), rows.end(), fresh.begin(), fresh.end(),
               std::back_inserter(out.records_), time_less);
    out.build_indexes();
    return out;
  }

  // Append: copy the base columns once, add the fresh rows, and splice
  // each fresh row onto the end of its key's run in every index.
  const auto n = static_cast<std::uint32_t>(rows.size());
  out.records_.assign(rows.begin(), rows.end());
  out.records_.insert(out.records_.end(), fresh.begin(), fresh.end());
  out.times_.reserve(out.records_.size());
  out.times_.assign(base.times_.begin(), base.times_.end());
  out.types_.reserve(out.records_.size());
  out.types_.assign(base.types_.begin(), base.types_.end());
  std::vector<KeyedRow> node_rows;
  std::vector<KeyedRow> blade_rows;
  std::vector<KeyedRow> cabinet_rows;
  std::vector<KeyedRow> type_rows;
  for (std::uint32_t i = 0; i < fresh.size(); ++i) {
    const LogRecord& r = fresh[i];
    out.times_.push_back(r.time.usec);
    out.types_.push_back(r.type);
    if (r.has_node()) node_rows.push_back({r.node.value, n + i});
    if (r.has_blade()) blade_rows.push_back({r.blade.value, n + i});
    if (r.has_cabinet()) cabinet_rows.push_back({r.cabinet.value, n + i});
    type_rows.push_back({static_cast<std::uint32_t>(r.type), n + i});
  }
  for (auto* keyed : {&node_rows, &blade_rows, &cabinet_rows, &type_rows}) {
    std::sort(keyed->begin(), keyed->end());
  }
  out.by_node_ = splice(base.by_node_, node_rows);
  out.by_blade_ = splice(base.by_blade_, blade_rows);
  out.by_cabinet_ = splice(base.by_cabinet_, cabinet_rows);
  // build_indexes() sizes a non-empty store's type index by the enum.
  out.by_type_ = splice(base.by_type_, type_rows, out.records_.empty() ? 0 : kEventTypeCount);

  std::vector<platform::NodeId> fresh_nodes;
  for (const KeyedRow& k : node_rows) {
    if (fresh_nodes.empty() || fresh_nodes.back().value != k.key) {
      fresh_nodes.push_back(platform::NodeId{k.key});
    }
  }
  std::set_union(base.nodes_.begin(), base.nodes_.end(), fresh_nodes.begin(),
                 fresh_nodes.end(), std::back_inserter(out.nodes_));
  return out;
}

void LogStore::build_indexes() {
  const std::size_t n = records_.size();

  times_.resize(n);
  types_.resize(n);

  // CSR build in three dense passes: (1) key ranges + type counts (fused
  // with the time/type column extraction — every pass over the 64-byte
  // records is real memory traffic), (2) per-key counts into
  // offsets[key + 1], (3) prefix-sum, then fill entries walking records in
  // order so every per-key run stays time-ordered.  Exact-sized flat
  // arrays, no per-key heap blocks.  Runs once, while the indexes are
  // still empty.
  std::uint32_t node_keys = 0;
  std::uint32_t blade_keys = 0;
  std::uint32_t cabinet_keys = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const LogRecord& r = records_[i];
    times_[i] = r.time.usec;
    types_[i] = r.type;
    if (r.has_node()) node_keys = std::max(node_keys, r.node.value + 1);
    if (r.has_blade()) blade_keys = std::max(blade_keys, r.blade.value + 1);
    if (r.has_cabinet()) cabinet_keys = std::max(cabinet_keys, r.cabinet.value + 1);
  }
  if (node_keys != 0) by_node_.offsets.assign(std::size_t{node_keys} + 1, 0);
  if (blade_keys != 0) by_blade_.offsets.assign(std::size_t{blade_keys} + 1, 0);
  if (cabinet_keys != 0) by_cabinet_.offsets.assign(std::size_t{cabinet_keys} + 1, 0);
  if (n != 0) by_type_.offsets.assign(kEventTypeCount + 1, 0);

  // An empty offsets array implies no record carries that key, so the
  // guarded subscripts below are never reached for it.
  for (const LogRecord& r : records_) {
    if (r.has_node()) ++by_node_.offsets[r.node.value + 1];
    if (r.has_blade()) ++by_blade_.offsets[r.blade.value + 1];
    if (r.has_cabinet()) ++by_cabinet_.offsets[r.cabinet.value + 1];
    ++by_type_.offsets[static_cast<std::size_t>(r.type) + 1];
  }
  const auto prefix_sum = [](CsrIndex& idx) {
    for (std::size_t k = 1; k < idx.offsets.size(); ++k) idx.offsets[k] += idx.offsets[k - 1];
    idx.entries.resize(idx.offsets.empty() ? 0 : idx.offsets.back());
  };
  prefix_sum(by_node_);
  prefix_sum(by_blade_);
  prefix_sum(by_cabinet_);
  prefix_sum(by_type_);

  std::vector<std::uint32_t> node_cur = by_node_.offsets;
  std::vector<std::uint32_t> blade_cur = by_blade_.offsets;
  std::vector<std::uint32_t> cabinet_cur = by_cabinet_.offsets;
  std::vector<std::uint32_t> type_cur = by_type_.offsets;
  for (std::uint32_t i = 0; i < n; ++i) {
    const LogRecord& r = records_[i];
    if (r.has_node()) by_node_.entries[node_cur[r.node.value]++] = i;
    if (r.has_blade()) by_blade_.entries[blade_cur[r.blade.value]++] = i;
    if (r.has_cabinet()) by_cabinet_.entries[cabinet_cur[r.cabinet.value]++] = i;
    by_type_.entries[type_cur[static_cast<std::size_t>(r.type)]++] = i;
  }

  // Distinct node ids fall out of the offsets in ascending order for free.
  for (std::uint32_t k = 0; k < node_keys; ++k) {
    if (by_node_.offsets[k + 1] > by_node_.offsets[k]) nodes_.push_back(platform::NodeId{k});
  }
}

util::TimePoint LogStore::first_time() const {
  return records_.empty() ? util::TimePoint{} : records_.front().time;
}

util::TimePoint LogStore::last_time() const {
  return records_.empty() ? util::TimePoint{} : records_.back().time;
}

std::span<const LogRecord> LogStore::range(util::TimePoint begin,
                                           util::TimePoint end) const {
  // Binary search the dense time column, not the ~48-byte record rows.
  const auto lo = std::lower_bound(times_.begin(), times_.end(), begin.usec);
  const auto hi = std::lower_bound(lo, times_.end(), end.usec);
  return {records_.data() + (lo - times_.begin()),
          static_cast<std::size_t>(hi - lo)};
}

std::span<const std::uint32_t> LogStore::filter_window(std::span<const std::uint32_t> index,
                                                       util::TimePoint begin,
                                                       util::TimePoint end) const {
  // The index is time-ordered because records_ is; binary search on it,
  // comparing through the contiguous time column.
  const auto lo = std::lower_bound(index.begin(), index.end(), begin.usec,
                                   [this](std::uint32_t i, std::int64_t t) {
                                     return times_[i] < t;
                                   });
  const auto hi = std::lower_bound(lo, index.end(), end.usec,
                                   [this](std::uint32_t i, std::int64_t t) {
                                     return times_[i] < t;
                                   });
  return {index.data() + (lo - index.begin()), static_cast<std::size_t>(hi - lo)};
}

std::span<const std::uint32_t> LogStore::node_range(platform::NodeId node,
                                                    util::TimePoint begin,
                                                    util::TimePoint end) const {
  return filter_window(by_node_.of(node.value), begin, end);
}

std::span<const std::uint32_t> LogStore::blade_range(platform::BladeId blade,
                                                     util::TimePoint begin,
                                                     util::TimePoint end) const {
  return filter_window(by_blade_.of(blade.value), begin, end);
}

std::span<const std::uint32_t> LogStore::cabinet_range(platform::CabinetId cabinet,
                                                       util::TimePoint begin,
                                                       util::TimePoint end) const {
  return filter_window(by_cabinet_.of(cabinet.value), begin, end);
}

std::span<const std::uint32_t> LogStore::type_range(EventType type, util::TimePoint begin,
                                                    util::TimePoint end) const {
  // CsrIndex::of bounds-checks the key, so the empty default-constructed
  // store needs no special case here.
  return filter_window(by_type_.of(static_cast<std::uint32_t>(type)), begin, end);
}

std::size_t LogStore::count_of_type(EventType type) const {
  return by_type_.of(static_cast<std::uint32_t>(type)).size();
}

std::span<const std::uint32_t> LogStore::node_index(platform::NodeId node) const {
  return by_node_.of(node.value);
}

std::span<const std::uint32_t> LogStore::type_index(EventType type) const {
  return by_type_.of(static_cast<std::uint32_t>(type));
}

const std::vector<platform::NodeId>& LogStore::nodes() const {
  return nodes_;
}

}  // namespace hpcfail::logmodel
