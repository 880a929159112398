// Time-sorted in-memory store of structured log records with secondary
// indexes by node, blade and event type.  Range queries are binary-searched
// over a structure-of-arrays time column (so the search never drags full
// records through cache); the per-key indexes keep the correlation passes
// (which repeatedly ask "events of type T for node N in window W")
// sub-linear.  The store owns the SymbolTable that resolves every record's
// interned detail Symbol; string_views returned by detail() stay valid for
// the store's lifetime.
//
// A store is immutable: every way to make one (the sorting constructor,
// from_sorted, extend, from_sections) returns it sorted and fully indexed,
// so no query can see unsorted records or stale indexes.
#pragma once

#include <cstdint>
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
  /// builds — rows, columns, the four CSR indexes and nodes() — without
  /// sorting or re-indexing the base.  `symbols` must resolve the Symbols
  /// of both base and fresh records (a copy of base.symbols() with the
  /// fresh details interned into it keeps every base id valid).  Only
  /// `fresh` is stable-sorted.  When every fresh record is at or after
  /// base.last_time() (a live tail), the base columns are copied once and
  /// each index run is spliced in one pass; otherwise base and fresh are
  /// merged (base first on ties) and the indexes rebuilt.  Either way the
  /// cost is linear in base.size(), never n log n.
  [[nodiscard]] static LogStore extend(const LogStore& base, std::vector<LogRecord> fresh,
                                       SymbolTable symbols);

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] const LogRecord& operator[](std::size_t i) const noexcept { return records_[i]; }
  [[nodiscard]] const std::vector<LogRecord>& records() const noexcept { return records_; }

  /// The table resolving every record's detail Symbol.
  [[nodiscard]] const SymbolTable& symbols() const noexcept { return symbols_; }

  /// Columnar views over the sorted records: times()[i] is
  /// records()[i].time.usec, types()[i] is records()[i].type.  Dense
  /// arrays for scans that only need one field.
  [[nodiscard]] std::span<const std::int64_t> times() const noexcept { return times_; }
  [[nodiscard]] std::span<const EventType> types() const noexcept { return types_; }

  /// Resolves a record's detail Symbol; the view is valid while the store
  /// lives.  The record must belong to this store.
  [[nodiscard]] std::string_view detail(const LogRecord& r) const noexcept {
    return symbols_.view(r.detail);
  }
  [[nodiscard]] std::string_view detail(std::size_t i) const noexcept {
    return symbols_.view(records_[i].detail);
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

  /// Distinct node ids appearing in the store, sorted (cached at build).
  [[nodiscard]] const std::vector<platform::NodeId>& nodes() const;

  // --- Persistence (store_snapshot.cpp) -----------------------------------
  // Every persistent member — record rows, symbol table, time/type columns,
  // the four CSR indexes, the cached node list — serializes as flat
  // sections under the "store." prefix (util/serialize.hpp).  The corpus
  // snapshot (parsers/snapshot.hpp) adds the on-disk framing; see
  // FORMATS.md "snapshot — hpcfail.store.v1".

  /// Registers this store's sections (borrowed views into live columns
  /// plus a normalized owned copy of the record rows).  The store must
  /// outlive `out`.
  void append_sections(util::Sections& out) const;

  /// Rebuilds a store from its sections, validating every invariant the
  /// query paths rely on (column lengths, monotone times, index entries in
  /// range, symbol ids resolvable) so corrupt input can never produce a
  /// store that reads out of bounds.  Throws util::SectionError.
  [[nodiscard]] static LogStore from_sections(const util::SectionMap& in);

 private:
  void build_indexes();

  /// CSR indexes (util::CsrIndex): entries are record indexes, grouped by
  /// id and time-ordered within each run because the fill pass walks the
  /// sorted records.
  using CsrIndex = util::CsrIndex<std::uint32_t>;

  [[nodiscard]] std::span<const std::uint32_t> filter_window(
      std::span<const std::uint32_t> index, util::TimePoint begin,
      util::TimePoint end) const;

  std::vector<LogRecord> records_;
  SymbolTable symbols_;
  // Query-hot columns, split out of records_ so binary searches touch a
  // dense array of the compared field only (structure-of-arrays).
  std::vector<std::int64_t> times_;  ///< records_[i].time.usec
  std::vector<EventType> types_;    ///< records_[i].type
  CsrIndex by_node_;
  CsrIndex by_blade_;
  CsrIndex by_cabinet_;
  CsrIndex by_type_;  ///< keyed by EventType value; offsets empty only when n == 0
  std::vector<platform::NodeId> nodes_;  ///< sorted distinct node ids
};

}  // namespace hpcfail::logmodel
