// LogStore persistence: the store's columns, indexes and symbol table as
// flat sections (util/serialize.hpp), which the corpus snapshot
// (parsers/snapshot.hpp) frames on disk.
#include <cstddef>
#include <cstring>
#include <string>

#include "logmodel/log_store.hpp"

namespace hpcfail::logmodel {

namespace {

// The on-disk record row is the in-memory LogRecord, 48 bytes with two
// padding holes (byte 11, bytes 44..47) that the writer zeroes so files
// are byte-reproducible.  These asserts pin the layout: if a field moves
// or the struct grows, the format version must be bumped and FORMATS.md
// updated, and this build break is the reminder.
static_assert(sizeof(LogRecord) == 48);
static_assert(std::is_standard_layout_v<LogRecord>);
static_assert(offsetof(LogRecord, time) == 0);
static_assert(offsetof(LogRecord, source) == 8);
static_assert(offsetof(LogRecord, type) == 9);
static_assert(offsetof(LogRecord, severity) == 10);
static_assert(offsetof(LogRecord, node) == 12);
static_assert(offsetof(LogRecord, blade) == 16);
static_assert(offsetof(LogRecord, cabinet) == 20);
static_assert(offsetof(LogRecord, job_id) == 24);
static_assert(offsetof(LogRecord, value) == 32);
static_assert(offsetof(LogRecord, detail) == 40);
static_assert(sizeof(util::TimePoint) == 8);
static_assert(sizeof(EventType) == 1 && sizeof(LogSource) == 1 && sizeof(Severity) == 1);
static_assert(sizeof(platform::NodeId) == 4 && sizeof(Symbol) == 4);

/// "store.meta" row: element counts cross-checked against the actual
/// section lengths on load.
struct StoreMeta {
  std::uint64_t records = 0;
  std::uint64_t symbols = 0;
};
static_assert(sizeof(StoreMeta) == 16);

/// Record rows normalized for disk: field-by-field copies into a zeroed
/// buffer, so the padding holes hold 0x00 instead of whatever the heap
/// happened to contain.
std::vector<std::byte> normalized_records(const std::vector<LogRecord>& records) {
  std::vector<std::byte> out(records.size() * sizeof(LogRecord), std::byte{0});
  std::byte* row = out.data();
  for (const LogRecord& r : records) {
    const auto put = [row](std::size_t at, const auto& field) {
      std::memcpy(row + at, &field, sizeof(field));
    };
    put(0, r.time);
    put(8, r.source);
    put(9, r.type);
    put(10, r.severity);
    put(12, r.node);
    put(16, r.blade);
    put(20, r.cabinet);
    put(24, r.job_id);
    put(32, r.value);
    put(40, r.detail);
    row += sizeof(LogRecord);
  }
  return out;
}

void require_entries_in_range(const util::CsrIndex<std::uint32_t>& index,
                              std::size_t n, const std::string& name) {
  for (const std::uint32_t entry : index.entries) {
    if (entry >= n) {
      throw util::SectionError(name + ".entries",
                               "entry " + std::to_string(entry) +
                                   " out of range for " + std::to_string(n) +
                                   " records");
    }
  }
}

}  // namespace

void LogStore::append_sections(util::Sections& out) const {
  StoreMeta meta;
  meta.records = records_.size();
  meta.symbols = symbols_.size();
  out.add_scalar("store.meta", meta);
  out.add_owned("store.records", normalized_records(records_));
  out.add_vector("store.times", times_);
  out.add_vector("store.types", types_);
  by_node_.append_sections(out, "store.by_node");
  by_blade_.append_sections(out, "store.by_blade");
  by_cabinet_.append_sections(out, "store.by_cabinet");
  by_type_.append_sections(out, "store.by_type");
  out.add_vector("store.nodes", nodes_);
  symbols_.append_sections(out, "store.symbols");
}

LogStore LogStore::from_sections(const util::SectionMap& in) {
  const auto meta = in.scalar_of<StoreMeta>("store.meta");
  LogStore store;
  store.records_ = in.vector_of<LogRecord>("store.records");
  store.symbols_ = SymbolTable::from_sections(in, "store.symbols");
  store.times_ = in.vector_of<std::int64_t>("store.times");
  store.types_ = in.vector_of<EventType>("store.types");
  store.by_node_ = CsrIndex::from_sections(in, "store.by_node");
  store.by_blade_ = CsrIndex::from_sections(in, "store.by_blade");
  store.by_cabinet_ = CsrIndex::from_sections(in, "store.by_cabinet");
  store.by_type_ = CsrIndex::from_sections(in, "store.by_type");
  store.nodes_ = in.vector_of<platform::NodeId>("store.nodes");

  // Validate everything the query paths take for granted; a snapshot that
  // passed its CRCs can still be adversarially wrong, and the contract is
  // structured rejection, never UB.
  const std::size_t n = store.records_.size();
  if (meta.records != n) {
    throw util::SectionError("store.records",
                             "meta declares " + std::to_string(meta.records) +
                                 " records, section holds " + std::to_string(n));
  }
  if (meta.symbols != store.symbols_.size()) {
    throw util::SectionError("store.symbols.offsets",
                             "meta declares " + std::to_string(meta.symbols) +
                                 " symbols, section holds " +
                                 std::to_string(store.symbols_.size()));
  }
  if (store.times_.size() != n || store.types_.size() != n) {
    throw util::SectionError("store.times", "column lengths disagree with records");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const LogRecord& r = store.records_[i];
    if (store.times_[i] != r.time.usec || store.types_[i] != r.type) {
      throw util::SectionError("store.times",
                               "columns disagree with record " + std::to_string(i));
    }
    if (i > 0 && store.times_[i] < store.times_[i - 1]) {
      throw util::SectionError("store.times", "times decrease at record " +
                                                  std::to_string(i));
    }
    if (static_cast<std::size_t>(r.type) >= kEventTypeCount) {
      throw util::SectionError("store.records",
                               "record " + std::to_string(i) + " has event type " +
                                   std::to_string(static_cast<unsigned>(r.type)) +
                                   " past the enum range");
    }
    if (r.detail.id >= store.symbols_.size()) {
      throw util::SectionError("store.records",
                               "record " + std::to_string(i) +
                                   " references symbol id " +
                                   std::to_string(r.detail.id) + " of " +
                                   std::to_string(store.symbols_.size()));
    }
  }
  require_entries_in_range(store.by_node_, n, "store.by_node");
  require_entries_in_range(store.by_blade_, n, "store.by_blade");
  require_entries_in_range(store.by_cabinet_, n, "store.by_cabinet");
  require_entries_in_range(store.by_type_, n, "store.by_type");
  if (!store.by_type_.offsets.empty() &&
      store.by_type_.offsets.size() != kEventTypeCount + 1) {
    throw util::SectionError("store.by_type.offsets",
                             "expected " + std::to_string(kEventTypeCount + 1) +
                                 " offsets, found " +
                                 std::to_string(store.by_type_.offsets.size()));
  }
  return store;
}

}  // namespace hpcfail::logmodel
