// Time-sorted in-memory store of structured log records with secondary
// indexes by node, blade and event type.  Range queries are binary-searched
// over a structure-of-arrays time column (so the search never drags full
// records through cache); the per-key indexes keep the correlation passes
// (which repeatedly ask "events of type T for node N in window W")
// sub-linear.  The store's storage owns the SymbolTable that resolves every
// record's interned detail Symbol; a store resolves only the ids its own
// records may use, and string_views returned by detail() stay valid for the
// store's lifetime.
//
// A store is immutable: every way to make one (the sorting constructor,
// from_sorted, extend, from_sections) returns it sorted and fully indexed,
// so no query can see unsorted records or stale indexes.
//
// A store is a view into storage it shares with the stores extended from
// it: its row count and symbol count plus, for each index key, where that
// key's run starts and how long it is.  Rows, index entries, interned
// strings and node lists, once written, are never written again, so
// extend() can append a live tail into the storage past every existing
// view while other threads read those views.  Every query still returns
// one contiguous span.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "logmodel/record.hpp"
#include "logmodel/symbol_table.hpp"
#include "util/csr.hpp"
#include "util/serialize.hpp"

namespace hpcfail::logmodel {

class LogStore {
 public:
  LogStore() = default;

  /// Takes ownership of the records (and the table their detail Symbols
  /// point into), sorts by time and builds indexes.
  explicit LogStore(std::vector<LogRecord> records, SymbolTable symbols = {});

  /// Builds a store from records already stably sorted by time (e.g. the
  /// k-way merge of StoreBuilder), skipping the O(n log n) global sort.
  /// Throws std::logic_error when the records are not time-ordered —
  /// accepting them would silently break every binary search over the
  /// time column, so the contract violation fails loud in every build.
  [[nodiscard]] static LogStore from_sorted(std::vector<LogRecord> records,
                                            SymbolTable symbols = {});

  /// Returns exactly the store `LogStore(base.records() ++ fresh, symbols)`
  /// builds — rows, columns, the four indexes, nodes() and symbols() —
  /// without sorting or re-indexing the base, where `symbols` is base's
  /// table with the fresh details interned into it in `fresh` order.  The
  /// fresh records' detail Symbols point into `fresh_symbols`, the batch's
  /// own table.  Only `fresh` is stable-sorted.
  ///
  /// When every fresh record is at or after base.last_time() (a live tail)
  /// and `base` is the newest store of its storage (no store has been
  /// extended from it yet), the fresh rows, index entries and strings are
  /// written into that storage past every existing view: amortized
  /// O(fresh + key space), with base left untouched.  Otherwise the result
  /// gets new storage: a tail is copied there with headroom for later
  /// appends, and fresh records that interleave history are merged (base
  /// first on ties) and indexed afresh.  Safe while other threads read any
  /// earlier store.
  [[nodiscard]] static LogStore extend(const LogStore& base, std::vector<LogRecord> fresh,
                                       const SymbolTable& fresh_symbols);

  [[nodiscard]] std::size_t size() const noexcept { return cols_.n; }
  [[nodiscard]] const LogRecord& operator[](std::size_t i) const noexcept {
    return cols_.rows[i];
  }
  [[nodiscard]] std::span<const LogRecord> records() const noexcept {
    return {cols_.rows, cols_.n};
  }

  /// The strings this store's detail Symbols resolve to, by id: its
  /// prefix of the storage's table.
  [[nodiscard]] std::span<const std::string_view> symbols() const noexcept {
    return {cols_.details, cols_.symbols};
  }

  /// Resolves a record's detail Symbol; the view is valid while the store
  /// lives.  The record must belong to this store; ids past symbols()
  /// resolve to "".
  [[nodiscard]] std::string_view detail(const LogRecord& r) const noexcept {
    return r.detail.id < cols_.symbols ? cols_.details[r.detail.id] : std::string_view{};
  }
  [[nodiscard]] std::string_view detail(std::size_t i) const noexcept {
    return detail(cols_.rows[i]);
  }

  [[nodiscard]] util::TimePoint first_time() const;
  [[nodiscard]] util::TimePoint last_time() const;

  /// All records with begin <= time < end, as a contiguous span.
  [[nodiscard]] std::span<const LogRecord> range(util::TimePoint begin,
                                                 util::TimePoint end) const;

  /// Indexes (into records()) of this node's records within [begin, end).
  /// The span aliases the store's index and is valid while the store lives.
  [[nodiscard]] std::span<const std::uint32_t> node_range(platform::NodeId node,
                                                          util::TimePoint begin,
                                                          util::TimePoint end) const;

  /// Indexes of this blade's records (records carrying that blade id,
  /// including node-scoped records resolved to the blade) within [begin, end).
  [[nodiscard]] std::span<const std::uint32_t> blade_range(platform::BladeId blade,
                                                           util::TimePoint begin,
                                                           util::TimePoint end) const;

  /// Indexes of this cabinet's records within [begin, end).
  [[nodiscard]] std::span<const std::uint32_t> cabinet_range(platform::CabinetId cabinet,
                                                             util::TimePoint begin,
                                                             util::TimePoint end) const;

  /// Indexes of records of `type` within [begin, end).
  [[nodiscard]] std::span<const std::uint32_t> type_range(EventType type, util::TimePoint begin,
                                                          util::TimePoint end) const;

  /// Total count of records of `type`.
  [[nodiscard]] std::size_t count_of_type(EventType type) const;

  /// All record indexes for a node (time-ordered).
  [[nodiscard]] std::span<const std::uint32_t> node_index(platform::NodeId node) const;

  /// All record indexes for an event type (time-ordered).
  [[nodiscard]] std::span<const std::uint32_t> type_index(EventType type) const;

  /// Distinct node ids appearing in the store, sorted (cached at build and
  /// shared with every extend that brings no new node).
  [[nodiscard]] const std::vector<platform::NodeId>& nodes() const;

  // --- Persistence (store_snapshot.cpp) -----------------------------------
  // Every persistent member — record rows, symbol table, time/type columns,
  // the four indexes as CSR offset and entry arrays, the cached node list —
  // serializes as flat sections under the "store." prefix
  // (util/serialize.hpp).  The corpus snapshot (parsers/snapshot.hpp) adds
  // the on-disk framing; see FORMATS.md "snapshot — hpcfail.store.v1".

  /// Registers this store's sections: borrowed views into live columns
  /// and, for a store that was not extended, into its CSR arrays; an
  /// extended store's runs are packed into owned CSR arrays, and the record
  /// rows are always a normalized owned copy.  The store must outlive
  /// `out`.
  void append_sections(util::Sections& out) const;

  /// Rebuilds a store from its sections, validating every invariant the
  /// query paths rely on (column lengths, monotone times, index entries in
  /// range, symbol ids resolvable) so corrupt input can never produce a
  /// store that reads out of bounds.  Throws util::SectionError.
  [[nodiscard]] static LogStore from_sections(const util::SectionMap& in);

 private:
  struct Storage;  ///< rows, columns, indexes and symbols (log_store.cpp)

  /// The four indexes, in section order.
  enum Index : std::uint8_t { kByNode, kByBlade, kByCabinet, kByType, kIndexCount };

  /// One key's run: `size` record indexes, time-ordered, from `start`.
  struct Run {
    std::uint32_t start = 0;
    std::uint32_t size = 0;
  };

  /// One index as this store sees it.  Keys past `runs` have no entries.
  struct IndexView {
    const std::uint32_t* entries = nullptr;  ///< the storage's arena
    std::vector<Run> runs;                   ///< by key; a move leaves it empty

    [[nodiscard]] std::span<const std::uint32_t> of(std::uint32_t key) const noexcept {
      if (key >= runs.size()) return {};
      return {entries + runs[key].start, runs[key].size};
    }
  };

  /// The row and symbol counts and cached pointers into the storage's
  /// columns and symbol table, so hot accessors add no indirection.  A move
  /// leaves the source empty rather than reading through storage it no
  /// longer keeps alive.
  struct Columns {
    std::size_t n = 0;
    const LogRecord* rows = nullptr;
    const std::int64_t* times = nullptr;  ///< rows[i].time.usec
    const EventType* types = nullptr;     ///< rows[i].type
    std::size_t symbols = 0;              ///< ids this store's records may use
    const std::string_view* details = nullptr;  ///< the table's id -> text

    Columns() = default;
    Columns(const Columns&) = default;
    Columns& operator=(const Columns&) = default;
    Columns(Columns&& other) noexcept : Columns(other) { other.clear(); }
    Columns& operator=(Columns&& other) noexcept {
      *this = other;
      other.clear();
      return *this;
    }
    void clear() noexcept {
      n = 0;
      symbols = 0;
    }
  };

  using CsrIndex = util::CsrIndex<std::uint32_t>;

  /// Sorted rows in, the tight layout out: exact-sized columns and CSR
  /// indexes (entries grouped by key, time-ordered within each run).
  void build(std::vector<LogRecord> rows, SymbolTable symbols);

  /// Points this view at new packed storage: exactly these columns, CSR
  /// indexes and symbols, never appended to.  Adopts them, copying nothing.
  void adopt_packed(std::vector<LogRecord> rows, std::vector<std::int64_t> times,
                    std::vector<EventType> types, std::array<CsrIndex, kIndexCount> index,
                    SymbolTable symbols);

  /// Index `i` as built, when this store's storage is packed; else null.
  [[nodiscard]] const CsrIndex* packed_index(std::size_t i) const noexcept;

  [[nodiscard]] std::span<const std::uint32_t> filter_window(
      std::span<const std::uint32_t> index, util::TimePoint begin,
      util::TimePoint end) const;

  std::shared_ptr<Storage> storage_;  ///< null only for the empty default store
  std::uint64_t generation_ = 0;      ///< this view's place in its storage's chain
  Columns cols_;
  std::array<IndexView, kIndexCount> index_;
  /// Sorted distinct node ids; null for the default store and a moved-from one.
  std::shared_ptr<const std::vector<platform::NodeId>> nodes_;
};

}  // namespace hpcfail::logmodel
