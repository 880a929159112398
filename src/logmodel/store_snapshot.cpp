// LogStore persistence: the store's columns, indexes and symbol table as
// flat sections (util/serialize.hpp), which the corpus snapshot
// (parsers/snapshot.hpp) frames on disk.
#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

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

/// The four index sections, in LogStore's index order.
constexpr std::array<std::string_view, 4> kIndexSections = {
    "store.by_node", "store.by_blade", "store.by_cabinet", "store.by_type"};

/// Record rows normalized for disk: field-by-field copies into a zeroed
/// buffer, so the padding holes hold 0x00 instead of whatever the heap
/// happened to contain.
std::vector<std::byte> normalized_records(std::span<const LogRecord> records) {
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

/// An owned copy of `values` as section bytes.
std::vector<std::byte> owned_bytes(const std::vector<std::uint32_t>& values) {
  const auto bytes = std::as_bytes(std::span<const std::uint32_t>(values));
  return {bytes.begin(), bytes.end()};
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
  static_assert(kIndexSections.size() == kIndexCount);
  StoreMeta meta;
  meta.records = size();
  meta.symbols = cols_.symbols;
  out.add_scalar("store.meta", meta);
  out.add_owned("store.records", normalized_records(records()));
  out.add("store.times", std::as_bytes(std::span<const std::int64_t>(cols_.times, cols_.n)));
  out.add("store.types", std::as_bytes(std::span<const EventType>(cols_.types, cols_.n)));
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    const std::string prefix(kIndexSections[i]);
    if (const CsrIndex* csr = packed_index(i)) {
      csr->append_sections(out, prefix);
      continue;
    }
    // An extended store's runs, back to back in key order: the CSR a build
    // over the same records makes.
    const IndexView& view = index_[i];
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> entries;
    if (!view.runs.empty()) {
      offsets.reserve(view.runs.size() + 1);
      offsets.push_back(0);
      for (const Run& run : view.runs) {
        entries.insert(entries.end(), view.entries + run.start,
                       view.entries + run.start + run.size);
        offsets.push_back(static_cast<std::uint32_t>(entries.size()));
      }
    }
    out.add_owned(prefix + ".offsets", owned_bytes(offsets));
    out.add_owned(prefix + ".entries", owned_bytes(entries));
  }
  out.add_vector("store.nodes", nodes());
  SymbolTable::append_sections(symbols(), out, "store.symbols");
}

LogStore LogStore::from_sections(const util::SectionMap& in) {
  const auto meta = in.scalar_of<StoreMeta>("store.meta");
  std::vector<LogRecord> records = in.vector_of<LogRecord>("store.records");
  LogStore store;
  SymbolTable symbols = SymbolTable::from_sections(in, "store.symbols");
  std::vector<std::int64_t> times = in.vector_of<std::int64_t>("store.times");
  std::vector<EventType> types = in.vector_of<EventType>("store.types");
  std::array<CsrIndex, kIndexCount> index;
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    index[i] = CsrIndex::from_sections(in, std::string(kIndexSections[i]));
  }
  store.nodes_ = std::make_shared<const std::vector<platform::NodeId>>(
      in.vector_of<platform::NodeId>("store.nodes"));

  // Validate everything the query paths take for granted; a snapshot that
  // passed its CRCs can still be adversarially wrong, and the contract is
  // structured rejection, never UB.
  const std::size_t n = records.size();
  if (meta.records != n) {
    throw util::SectionError("store.records",
                             "meta declares " + std::to_string(meta.records) +
                                 " records, section holds " + std::to_string(n));
  }
  if (meta.symbols != symbols.size()) {
    throw util::SectionError("store.symbols.offsets",
                             "meta declares " + std::to_string(meta.symbols) +
                                 " symbols, section holds " + std::to_string(symbols.size()));
  }
  if (times.size() != n || types.size() != n) {
    throw util::SectionError("store.times", "column lengths disagree with records");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const LogRecord& r = records[i];
    if (times[i] != r.time.usec || types[i] != r.type) {
      throw util::SectionError("store.times",
                               "columns disagree with record " + std::to_string(i));
    }
    if (i > 0 && times[i] < times[i - 1]) {
      throw util::SectionError("store.times", "times decrease at record " +
                                                  std::to_string(i));
    }
    if (static_cast<std::size_t>(r.type) >= kEventTypeCount) {
      throw util::SectionError("store.records",
                               "record " + std::to_string(i) + " has event type " +
                                   std::to_string(static_cast<unsigned>(r.type)) +
                                   " past the enum range");
    }
    if (r.detail.id >= symbols.size()) {
      throw util::SectionError("store.records",
                               "record " + std::to_string(i) +
                                   " references symbol id " +
                                   std::to_string(r.detail.id) + " of " +
                                   std::to_string(symbols.size()));
    }
  }
  for (std::size_t i = 0; i < kIndexCount; ++i) {
    require_entries_in_range(index[i], n, std::string(kIndexSections[i]));
  }
  const std::vector<std::uint32_t>& type_offsets = index[kByType].offsets;
  if (!type_offsets.empty() && type_offsets.size() != kEventTypeCount + 1) {
    throw util::SectionError("store.by_type.offsets",
                             "expected " + std::to_string(kEventTypeCount + 1) +
                                 " offsets, found " + std::to_string(type_offsets.size()));
  }
  store.adopt_packed(std::move(records), std::move(times), std::move(types), std::move(index),
                     std::move(symbols));
  return store;
}

}  // namespace hpcfail::logmodel
