#include "logmodel/log_store.hpp"

#include <algorithm>
#include <atomic>
#include <compare>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace hpcfail::logmodel {

namespace {

bool time_less(const LogRecord& a, const LogRecord& b) noexcept { return a.time < b.time; }

/// One fresh row's entry in an index; sorts by key, then row.
struct KeyedRow {
  std::uint32_t key = 0;
  std::uint32_t row = 0;
  friend auto operator<=>(const KeyedRow&, const KeyedRow&) = default;
};

/// Slots a run of `size` entries gets in growable storage: room to double
/// before it has to move.
std::uint32_t run_capacity(std::uint64_t size) {
  const std::uint64_t slots = std::max<std::uint64_t>(4, 2 * size);
  if (slots > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("LogStore: an index run outgrew 32-bit slot offsets");
  }
  return static_cast<std::uint32_t>(slots);
}

/// Counts the existing rows, column values and index entries extend()
/// copies, against the installed registry (if any).
void note_copied(std::size_t elements) {
  if (util::MetricsRegistry* reg = util::metrics()) {
    reg->counter("hpcfail.store.extend_copied").add(elements);
  }
}

/// The distinct details of a fresh batch, in first-seen order, and the
/// batch table they point into.  extend() interns them in that order, so
/// the ids it assigns follow the batch's input order, not its time sort.
class FreshDetails {
 public:
  FreshDetails(const std::vector<LogRecord>& fresh, const SymbolTable& table) : table_(table) {
    std::vector<bool> seen(table.size());
    for (const LogRecord& r : fresh) {
      const std::uint32_t id = r.detail.id < table.size() ? r.detail.id : 0;
      if (!seen[id]) {
        seen[id] = true;
        order_.push_back(id);
      }
    }
  }

  /// At most this many strings are new to any table.
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }

  /// Interns every detail into `dest` and points `rows` (records of the
  /// batch) at dest's ids.
  void intern(SymbolTable& dest, std::span<LogRecord> rows) const {
    std::vector<Symbol> remap(table_.size());
    for (const std::uint32_t id : order_) remap[id] = dest.intern(table_.view(Symbol{id}));
    for (LogRecord& r : rows) r.detail = r.detail.id < remap.size() ? remap[r.detail.id] : Symbol{};
  }

 private:
  const SymbolTable& table_;
  std::vector<std::uint32_t> order_;  ///< batch ids
};

/// Calls `fn(first, last)` for each run of equal keys in `keyed`.
template <class Fn>
void for_each_key_group(const std::vector<KeyedRow>& keyed, Fn&& fn) {
  for (auto first = keyed.begin(); first != keyed.end();) {
    const auto last = std::find_if(first, keyed.end(),
                                   [key = first->key](const KeyedRow& k) { return k.key != key; });
    fn(first, last);
    first = last;
  }
}

}  // namespace

/// The rows, columns, indexes and symbol table a chain of stores shares.
/// Each store reads a prefix of the columns and of the table's strings
/// and, per key, one run of each index.  Packed storage holds exactly one
/// store's CSR indexes and strings and is never appended to.  Growable
/// storage holds each run in a block of slots with headroom; the chain's
/// tip appends rows past every view, strings past every view's prefix and
/// index entries past the end of each run, so no slot any store can read
/// is written again.  No vector here grows past its capacity while a store
/// reads it: an append that would is made on a copy instead.
struct LogStore::Storage {
  /// One growable index: every run, each in its own block of slots.
  struct Arena {
    std::vector<std::uint32_t> entries;
    std::vector<std::uint32_t> capacity;  ///< slots from key k's run start
  };

  /// A fresh batch, time-sorted, with its entries for each index as (key,
  /// row) pairs sorted by key.
  struct Tail {
    Tail(std::vector<LogRecord> fresh, std::size_t first_row);
    std::vector<LogRecord> rows;
    std::array<std::vector<KeyedRow>, kIndexCount> keyed;
  };

  explicit Storage(bool packed) : packed(packed) {}

  /// Calls fn(index, key) for each index that has an entry for `r`.
  template <class Fn>
  static void for_each_key(const LogRecord& r, Fn&& fn) {
    if (r.has_node()) fn(kByNode, r.node.value);
    if (r.has_blade()) fn(kByBlade, r.blade.value);
    if (r.has_cabinet()) fn(kByCabinet, r.cabinet.value);
    fn(kByType, static_cast<std::uint32_t>(r.type));
  }

  /// `base`'s prefix of its storage's symbol table, with room for
  /// `capacity` strings.
  static SymbolTable symbols_of(const LogStore& base, std::size_t capacity);

  /// Growable storage holding `base`'s rows, runs and strings, with room
  /// for `tail`, `details` and as much again; points `view` at it.
  static std::shared_ptr<Storage> copy_of(const LogStore& base, const Tail& tail,
                                          const FreshDetails& details, LogStore& view);

  /// Whether `tail` and `details` append to `base` here without growing a
  /// vector past its capacity.  Only the tip may ask.
  [[nodiscard]] bool fits(const LogStore& base, const Tail& tail,
                          const FreshDetails& details) const;

  /// Appends `tail` past `view`'s rows, runs and strings (interning
  /// `details`) and extends `view` over it.  Requires fits().
  void append(LogStore& view, const Tail& tail, const FreshDetails& details);

  /// Points `view`'s cached columns at the first `n` rows here and at the
  /// symbol table as it stands.
  void point_columns(LogStore& view, std::size_t n) const;

  const bool packed;
  /// Generation of the store that may append in place: the first extend()
  /// of it swaps this for the next generation.
  std::atomic<std::uint64_t> tip{0};
  std::vector<LogRecord> rows;
  std::vector<std::int64_t> times;
  std::vector<EventType> types;
  std::array<CsrIndex, kIndexCount> csr;   ///< packed storage
  std::array<Arena, kIndexCount> arenas;  ///< growable storage
  SymbolTable symbols;
};

LogStore::Storage::Tail::Tail(std::vector<LogRecord> fresh, std::size_t first_row)
    : rows(std::move(fresh)) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto row = static_cast<std::uint32_t>(first_row + i);
    for_each_key(rows[i], [&](std::size_t index, std::uint32_t key) {
      keyed[index].push_back({key, row});
    });
  }
  for (std::vector<KeyedRow>& k : keyed) std::sort(k.begin(), k.end());
}

void LogStore::Storage::point_columns(LogStore& view, std::size_t n) const {
  view.cols_.n = n;
  view.cols_.rows = rows.data();
  view.cols_.times = times.data();
  view.cols_.types = types.data();
  view.cols_.symbols = symbols.size();
  view.cols_.details = symbols.views().data();
}

SymbolTable LogStore::Storage::symbols_of(const LogStore& base, std::size_t capacity) {
  static const SymbolTable kNone;
  return {base.storage_ != nullptr ? base.storage_->symbols : kNone, base.cols_.symbols,
          capacity};
}

bool LogStore::Storage::fits(const LogStore& base, const Tail& tail,
                             const FreshDetails& details) const {
  const std::size_t fresh = tail.rows.size();
  if (rows.capacity() - base.size() < fresh || times.capacity() - base.size() < fresh ||
      types.capacity() - base.size() < fresh) {
    return false;
  }
  if (symbols.capacity() - base.cols_.symbols < details.size()) return false;
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    const std::vector<Run>& runs = base.index_[i].runs;
    const Arena& arena = arenas[i];
    std::uint64_t moved = 0;  // slots the runs that overflow move to
    for_each_key_group(tail.keyed[i], [&](auto first, auto last) {
      const std::size_t key = first->key;
      const std::uint64_t size =
          std::uint64_t{key < runs.size() ? runs[key].size : 0} + (last - first);
      if (size > (key < arena.capacity.size() ? arena.capacity[key] : 0)) {
        moved += run_capacity(size);
      }
    });
    if (arena.entries.capacity() - arena.entries.size() < moved) return false;
  }
  return true;
}

std::shared_ptr<LogStore::Storage> LogStore::Storage::copy_of(const LogStore& base,
                                                              const Tail& tail,
                                                              const FreshDetails& details,
                                                              LogStore& view) {
  auto s = std::make_shared<Storage>(false);
  s->symbols = symbols_of(base, 2 * (base.cols_.symbols + details.size()));
  const std::size_t n = base.size();
  const std::size_t columns = 2 * (n + tail.rows.size());
  s->rows.reserve(columns);
  s->rows.assign(base.cols_.rows, base.cols_.rows + n);
  s->times.reserve(columns);
  s->times.assign(base.cols_.times, base.cols_.times + n);
  s->types.reserve(columns);
  s->types.assign(base.cols_.types, base.cols_.types + n);
  std::size_t copied = 3 * n + base.cols_.symbols;

  // Each key's run gets room for its fresh entries and as much again, so
  // the append that follows moves nothing.
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    const IndexView& from = base.index_[i];
    const std::vector<KeyedRow>& keyed = tail.keyed[i];
    std::size_t keys = from.runs.size();
    if (!keyed.empty()) keys = std::max<std::size_t>(keys, std::size_t{keyed.back().key} + 1);
    Arena& arena = s->arenas[i];
    std::vector<Run>& runs = view.index_[i].runs;
    runs.assign(keys, Run{});
    arena.capacity.assign(keys, 0);
    std::uint64_t slots = 0;
    auto next = keyed.begin();
    for (std::size_t key = 0; key < keys; ++key) {
      const auto first = next;
      while (next != keyed.end() && next->key == key) ++next;
      const std::uint32_t size = key < from.runs.size() ? from.runs[key].size : 0;
      const std::uint64_t want = std::uint64_t{size} + (next - first);
      runs[key] = {static_cast<std::uint32_t>(slots), size};
      arena.capacity[key] = want == 0 ? 0 : run_capacity(want);
      slots += arena.capacity[key];
    }
    if (2 * slots > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("LogStore: an index arena outgrew 32-bit slot offsets");
    }
    arena.entries.reserve(2 * slots);  // room for runs that later move
    arena.entries.resize(slots);
    for (std::size_t key = 0; key < from.runs.size(); ++key) {
      const Run run = from.runs[key];
      std::copy_n(from.entries + run.start, run.size, arena.entries.begin() + runs[key].start);
      copied += run.size;
    }
    view.index_[i].entries = arena.entries.data();
  }
  s->point_columns(view, n);
  note_copied(copied);
  return s;
}

void LogStore::Storage::append(LogStore& view, const Tail& tail, const FreshDetails& details) {
  const std::size_t n = view.size();
  rows.insert(rows.end(), tail.rows.begin(), tail.rows.end());
  details.intern(symbols, std::span<LogRecord>(rows).subspan(n));
  for (const LogRecord& r : tail.rows) {
    times.push_back(r.time.usec);
    types.push_back(r.type);
  }
  point_columns(view, n + tail.rows.size());

  // nodes() stays shared with the base unless the tail brings a node the
  // base has no record of.
  std::vector<platform::NodeId> new_nodes;
  const std::vector<Run>& node_runs = view.index_[kByNode].runs;
  for_each_key_group(tail.keyed[kByNode], [&](auto first, auto) {
    if (first->key >= node_runs.size() || node_runs[first->key].size == 0) {
      new_nodes.push_back(platform::NodeId{first->key});
    }
  });
  if (!new_nodes.empty()) {
    const std::vector<platform::NodeId>& old = view.nodes();
    std::vector<platform::NodeId> nodes;
    nodes.reserve(old.size() + new_nodes.size());
    std::set_union(old.begin(), old.end(), new_nodes.begin(), new_nodes.end(),
                   std::back_inserter(nodes));
    view.nodes_ = std::make_shared<const std::vector<platform::NodeId>>(std::move(nodes));
  }

  std::optional<util::TraceSpan> moving;  // opened by the first run that moves
  std::size_t copied = 0;
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    Arena& arena = arenas[i];
    std::vector<Run>& runs = view.index_[i].runs;
    const std::vector<KeyedRow>& keyed = tail.keyed[i];
    std::size_t keys = runs.size();
    if (!keyed.empty()) keys = std::max<std::size_t>(keys, std::size_t{keyed.back().key} + 1);
    // A non-empty store's type index spans the whole enum, as build() makes it.
    if (i == kByType) keys = std::max(keys, kEventTypeCount);
    runs.resize(keys);
    if (arena.capacity.size() < keys) arena.capacity.resize(keys, 0);
    for_each_key_group(keyed, [&](auto first, auto last) {
      Run& run = runs[first->key];
      std::uint32_t& capacity = arena.capacity[first->key];
      const std::uint64_t size = std::uint64_t{run.size} + (last - first);
      if (size > capacity) {
        // The run is full: move it alone to doubled space at the arena's
        // end (fits() reserved it).  Earlier stores keep reading the old
        // slots, which nothing writes again.
        if (!moving) moving.emplace("hpcfail.store.regrow");
        capacity = run_capacity(size);
        const std::size_t start = arena.entries.size();
        arena.entries.resize(start + capacity);
        std::copy_n(arena.entries.begin() + run.start, run.size,
                    arena.entries.begin() + static_cast<std::ptrdiff_t>(start));
        copied += run.size;
        run.start = static_cast<std::uint32_t>(start);
      }
      for (auto k = first; k != last; ++k) arena.entries[run.start + run.size++] = k->row;
    });
    view.index_[i].entries = arena.entries.data();
  }
  if (copied != 0) note_copied(copied);
}

LogStore::LogStore(std::vector<LogRecord> records, SymbolTable symbols) {
  std::stable_sort(records.begin(), records.end(), time_less);
  build(std::move(records), std::move(symbols));
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
  store.build(std::move(records), std::move(symbols));
  return store;
}

LogStore LogStore::extend(const LogStore& base, std::vector<LogRecord> fresh,
                          const SymbolTable& fresh_symbols) {
  util::TraceSpan span("hpcfail.store.extend");
  const FreshDetails details(fresh, fresh_symbols);  // input order, before the sort
  std::stable_sort(fresh.begin(), fresh.end(), time_less);
  const std::size_t n = base.size();
  LogStore out;

  if (n != 0 && !fresh.empty() && time_less(fresh.front(), base[n - 1])) {
    // Fresh records interleave history: a linear merge (base first on
    // ties, as a stable sort of base ++ fresh orders them), then the
    // ordinary index build.
    util::TraceSpan regrow("hpcfail.store.regrow");
    note_copied(n + base.cols_.symbols);
    SymbolTable symbols = Storage::symbols_of(base, base.cols_.symbols + details.size());
    details.intern(symbols, fresh);
    std::vector<LogRecord> rows;
    rows.reserve(n + fresh.size());
    std::merge(base.records().begin(), base.records().end(), fresh.begin(), fresh.end(),
               std::back_inserter(rows), time_less);
    out.build(std::move(rows), std::move(symbols));
    return out;
  }

  out.storage_ = base.storage_;
  out.generation_ = base.generation_;
  out.cols_ = base.cols_;
  out.index_ = base.index_;
  out.nodes_ = base.nodes_;
  if (fresh.empty()) return out;

  // Append in place only at the tip: the one store of the chain that wins
  // the swap of its generation for the next.  Anything else — a store
  // already extended, packed storage, a column or arena without room —
  // appends to a copy instead.
  const Storage::Tail tail(std::move(fresh), n);
  Storage* storage = base.storage_.get();
  std::uint64_t generation = base.generation_;
  if (storage != nullptr && !storage->packed &&
      storage->tip.compare_exchange_strong(generation, generation + 1) &&
      storage->fits(base, tail, details)) {
    out.generation_ = generation + 1;
  } else {
    util::TraceSpan regrow("hpcfail.store.regrow");
    out.storage_ = Storage::copy_of(base, tail, details, out);
    out.generation_ = 0;
  }
  out.storage_->append(out, tail, details);
  return out;
}

void LogStore::build(std::vector<LogRecord> rows, SymbolTable symbols) {
  const std::size_t n = rows.size();
  std::vector<std::int64_t> times(n);
  std::vector<EventType> types(n);
  std::array<CsrIndex, kIndexCount> index;

  // CSR build in three dense passes: (1) key ranges (fused with the
  // time/type column extraction — every pass over the 48-byte records is
  // real memory traffic), (2) per-key counts into offsets[key + 1], (3)
  // prefix-sum, then fill entries walking records in order so every
  // per-key run stays time-ordered.  Exact-sized flat arrays, no per-key
  // heap blocks and no growth slack.
  std::array<std::uint32_t, kIndexCount> keys{};
  for (std::size_t i = 0; i < n; ++i) {
    const LogRecord& r = rows[i];
    times[i] = r.time.usec;
    types[i] = r.type;
    Storage::for_each_key(r, [&keys](std::size_t at, std::uint32_t key) {
      keys[at] = std::max(keys[at], key + 1);
    });
  }
  // The type index spans the whole enum whenever there is a record.
  keys[kByType] = n == 0 ? 0 : static_cast<std::uint32_t>(kEventTypeCount);
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    if (keys[i] != 0) index[i].offsets.assign(std::size_t{keys[i]} + 1, 0);
  }

  // An empty offsets array implies no record carries that key, so the
  // subscripts below are never reached for it.
  for (const LogRecord& r : rows) {
    Storage::for_each_key(r, [&index](std::size_t at, std::uint32_t key) {
      ++index[at].offsets[std::size_t{key} + 1];
    });
  }
  std::array<std::vector<std::uint32_t>, kIndexCount> cursor;
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    std::vector<std::uint32_t>& offsets = index[i].offsets;
    for (std::size_t k = 1; k < offsets.size(); ++k) offsets[k] += offsets[k - 1];
    index[i].entries.resize(offsets.empty() ? 0 : offsets.back());
    cursor[i] = offsets;
  }
  for (std::uint32_t row = 0; row < n; ++row) {
    Storage::for_each_key(rows[row], [&](std::size_t at, std::uint32_t key) {
      index[at].entries[cursor[at][key]++] = row;
    });
  }

  // Distinct node ids fall out of the offsets in ascending order for free.
  std::vector<platform::NodeId> nodes;
  const std::vector<std::uint32_t>& node_offsets = index[kByNode].offsets;
  for (std::uint32_t k = 0; k < keys[kByNode]; ++k) {
    if (node_offsets[k + 1] > node_offsets[k]) nodes.push_back(platform::NodeId{k});
  }
  nodes_ = std::make_shared<const std::vector<platform::NodeId>>(std::move(nodes));
  adopt_packed(std::move(rows), std::move(times), std::move(types), std::move(index),
               std::move(symbols));
}

void LogStore::adopt_packed(std::vector<LogRecord> rows, std::vector<std::int64_t> times,
                            std::vector<EventType> types,
                            std::array<CsrIndex, kIndexCount> index, SymbolTable symbols) {
  auto storage = std::make_shared<Storage>(true);
  storage->rows = std::move(rows);
  storage->times = std::move(times);
  storage->types = std::move(types);
  storage->csr = std::move(index);
  storage->symbols = std::move(symbols);
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    const std::vector<std::uint32_t>& offsets = storage->csr[i].offsets;
    IndexView& view = index_[i];
    view.entries = storage->csr[i].entries.data();
    view.runs.assign(offsets.empty() ? 0 : offsets.size() - 1, Run{});
    for (std::size_t k = 0; k < view.runs.size(); ++k) {
      view.runs[k] = {offsets[k], offsets[k + 1] - offsets[k]};
    }
  }
  storage->point_columns(*this, storage->rows.size());
  storage_ = std::move(storage);
  generation_ = 0;
}

const LogStore::CsrIndex* LogStore::packed_index(std::size_t i) const noexcept {
  return storage_ != nullptr && storage_->packed ? &storage_->csr[i] : nullptr;
}

util::TimePoint LogStore::first_time() const {
  return cols_.n == 0 ? util::TimePoint{} : cols_.rows[0].time;
}

util::TimePoint LogStore::last_time() const {
  return cols_.n == 0 ? util::TimePoint{} : cols_.rows[cols_.n - 1].time;
}

std::span<const LogRecord> LogStore::range(util::TimePoint begin,
                                           util::TimePoint end) const {
  // Binary search the dense time column, not the 48-byte record rows.
  const std::int64_t* times_end = cols_.times + cols_.n;
  const auto lo = std::lower_bound(cols_.times, times_end, begin.usec);
  const auto hi = std::lower_bound(lo, times_end, end.usec);
  return {cols_.rows + (lo - cols_.times), static_cast<std::size_t>(hi - lo)};
}

std::span<const std::uint32_t> LogStore::filter_window(std::span<const std::uint32_t> index,
                                                       util::TimePoint begin,
                                                       util::TimePoint end) const {
  // The index is time-ordered because the rows are; binary search on it,
  // comparing through the contiguous time column.
  const std::int64_t* times = cols_.times;
  const auto lo = std::lower_bound(index.begin(), index.end(), begin.usec,
                                   [times](std::uint32_t i, std::int64_t t) {
                                     return times[i] < t;
                                   });
  const auto hi = std::lower_bound(lo, index.end(), end.usec,
                                   [times](std::uint32_t i, std::int64_t t) {
                                     return times[i] < t;
                                   });
  return {index.data() + (lo - index.begin()), static_cast<std::size_t>(hi - lo)};
}

std::span<const std::uint32_t> LogStore::node_range(platform::NodeId node,
                                                    util::TimePoint begin,
                                                    util::TimePoint end) const {
  return filter_window(index_[kByNode].of(node.value), begin, end);
}

std::span<const std::uint32_t> LogStore::blade_range(platform::BladeId blade,
                                                     util::TimePoint begin,
                                                     util::TimePoint end) const {
  return filter_window(index_[kByBlade].of(blade.value), begin, end);
}

std::span<const std::uint32_t> LogStore::cabinet_range(platform::CabinetId cabinet,
                                                       util::TimePoint begin,
                                                       util::TimePoint end) const {
  return filter_window(index_[kByCabinet].of(cabinet.value), begin, end);
}

std::span<const std::uint32_t> LogStore::type_range(EventType type, util::TimePoint begin,
                                                    util::TimePoint end) const {
  return filter_window(index_[kByType].of(static_cast<std::uint32_t>(type)), begin, end);
}

std::size_t LogStore::count_of_type(EventType type) const {
  return index_[kByType].of(static_cast<std::uint32_t>(type)).size();
}

std::span<const std::uint32_t> LogStore::node_index(platform::NodeId node) const {
  return index_[kByNode].of(node.value);
}

std::span<const std::uint32_t> LogStore::type_index(EventType type) const {
  return index_[kByType].of(static_cast<std::uint32_t>(type));
}

const std::vector<platform::NodeId>& LogStore::nodes() const {
  static const std::vector<platform::NodeId> kNone;
  return nodes_ != nullptr ? *nodes_ : kNone;
}

}  // namespace hpcfail::logmodel
