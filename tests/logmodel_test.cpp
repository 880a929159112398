// Unit and property tests for src/logmodel: taxonomy consistency, LogStore
// (including extend() against the constructor, and every way to build one
// against each other), StoreBuilder.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>

#include "logmodel/cause.hpp"
#include "logmodel/event_type.hpp"
#include "logmodel/log_store.hpp"
#include "logmodel/store_builder.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace hpcfail::logmodel {
namespace {

// ------------------------------------------------------------ taxonomy ----

TEST(TaxonomyTest, EveryTypeHasUniqueName) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto type = static_cast<EventType>(i);
    const auto name = to_string(type);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

class TaxonomyClassification : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TaxonomyClassification, ClassesAreConsistent) {
  const auto type = static_cast<EventType>(GetParam());
  // The enum lists internal events through NodeBoot, then external events
  // through SedcReading, then job events.
  const bool internal = type <= EventType::NodeBoot;
  const bool external = !internal && type <= EventType::SedcReading;
  // Health faults and SEDC warnings are external; they never overlap.
  if (is_health_fault(type) || is_sedc_warning(type)) {
    EXPECT_TRUE(external) << to_string(type);
    EXPECT_FALSE(is_health_fault(type) && is_sedc_warning(type)) << to_string(type);
  }
  // Failure markers and internal indicators are internal and disjoint.
  if (is_failure_marker(type) || is_internal_indicator(type)) {
    EXPECT_TRUE(internal) << to_string(type);
    EXPECT_FALSE(is_failure_marker(type) && is_internal_indicator(type)) << to_string(type);
  }
  // External lead-time indicators are external events.
  if (is_external_indicator(type)) {
    EXPECT_TRUE(external) << to_string(type);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, TaxonomyClassification,
                         ::testing::Range<std::size_t>(0, kEventTypeCount));

TEST(ErdTableTest, NamesAndTypesAreInverse) {
  // Every type in the ERD table has its own name and maps back from it.
  std::set<std::string_view> names;
  std::size_t in_table = 0;
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto type = static_cast<EventType>(i);
    const std::string_view name = erd_event_name(type);
    if (name == "ec_event") continue;  // every type outside the table
    ++in_table;
    EXPECT_TRUE(names.insert(name).second) << "duplicate ERD name " << name;
    EXPECT_EQ(erd_event_type(name), type) << name;
  }
  EXPECT_EQ(in_table, 11u);  // the 11 names FORMATS.md documents
  EXPECT_EQ(erd_event_type("ec_node_failed"), EventType::NodeHeartbeatFault);
  EXPECT_EQ(erd_event_type("ec_hw_error"), EventType::EcHwError);
  EXPECT_EQ(erd_event_type("ec_link_error"), EventType::LinkError);
  EXPECT_EQ(erd_event_name(EventType::KernelPanic), "ec_event");
  EXPECT_EQ(erd_event_name(EventType::SedcReading), "ec_event");
  EXPECT_FALSE(erd_event_type("ec_event").has_value());
  EXPECT_FALSE(erd_event_type("ec_unknown_event").has_value());
  EXPECT_FALSE(erd_event_type("").has_value());
}

TEST(CauseTest, LayersAndStrings) {
  EXPECT_EQ(layer_of(RootCause::HardwareMce), CauseLayer::Hardware);
  EXPECT_EQ(layer_of(RootCause::FailSlowHardware), CauseLayer::Hardware);
  EXPECT_EQ(layer_of(RootCause::KernelBug), CauseLayer::Software);
  EXPECT_EQ(layer_of(RootCause::LustreBug), CauseLayer::Software);
  EXPECT_EQ(layer_of(RootCause::MemoryExhaustion), CauseLayer::Application);
  EXPECT_EQ(layer_of(RootCause::BiosUnknown), CauseLayer::Unknown);
  EXPECT_TRUE(is_application_triggered(RootCause::MemoryExhaustion));
  EXPECT_FALSE(is_application_triggered(RootCause::HardwareMce));
  for (std::size_t i = 0; i < kRootCauseCount; ++i) {
    EXPECT_NE(to_string(static_cast<RootCause>(i)), "?");
  }
}

// ------------------------------------------------------------ LogStore ----

LogRecord make_record(std::int64_t sec, EventType type, std::uint32_t node,
                      std::uint32_t blade = 0, std::uint32_t cabinet = 0) {
  LogRecord r;
  r.time = util::TimePoint::from_unix_seconds(sec);
  r.type = type;
  r.node = platform::NodeId{node};
  r.blade = platform::BladeId{blade};
  r.cabinet = platform::CabinetId{cabinet};
  return r;
}

TEST(LogStoreTest, SortsByTime) {
  std::vector<LogRecord> records;
  records.push_back(make_record(30, EventType::KernelPanic, 1));
  records.push_back(make_record(10, EventType::HardwareError, 1));
  records.push_back(make_record(20, EventType::MachineCheckException, 1));
  const LogStore store{std::move(records)};
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store[0].type, EventType::HardwareError);
  EXPECT_EQ(store[2].type, EventType::KernelPanic);
  EXPECT_EQ(store.first_time().unix_seconds(), 10);
  EXPECT_EQ(store.last_time().unix_seconds(), 30);
}

TEST(LogStoreTest, FromSortedRejectsNonMonotonicTimes) {
  std::vector<LogRecord> sorted;
  sorted.push_back(make_record(10, EventType::HardwareError, 1));
  sorted.push_back(make_record(20, EventType::KernelPanic, 1));
  EXPECT_EQ(LogStore::from_sorted(sorted, {}).size(), 2u);

  // A breach anywhere in the input must throw, not silently build a store
  // whose binary-searched range queries would return garbage.
  std::vector<LogRecord> breached;
  breached.push_back(make_record(10, EventType::HardwareError, 1));
  breached.push_back(make_record(30, EventType::KernelPanic, 1));
  breached.push_back(make_record(20, EventType::NodeBoot, 1));
  EXPECT_THROW((void)LogStore::from_sorted(std::move(breached), {}),
               std::logic_error);
}

TEST(LogStoreTest, RangeQueryHalfOpen) {
  std::vector<LogRecord> records;
  for (int s = 0; s < 10; ++s) {
    records.push_back(make_record(s, EventType::LustreError, 1));
  }
  const LogStore store{std::move(records)};
  const auto span = store.range(util::TimePoint::from_unix_seconds(2),
                                util::TimePoint::from_unix_seconds(5));
  EXPECT_EQ(span.size(), 3u);
  EXPECT_EQ(span.front().time.unix_seconds(), 2);
  EXPECT_EQ(span.back().time.unix_seconds(), 4);
}

TEST(LogStoreTest, NodeBladeCabinetIndexes) {
  std::vector<LogRecord> records;
  records.push_back(make_record(1, EventType::HardwareError, 1, 10, 100));
  records.push_back(make_record(2, EventType::HardwareError, 2, 10, 100));
  records.push_back(make_record(3, EventType::HardwareError, 3, 11, 101));
  // Blade-scoped record (no node).
  LogRecord blade_only;
  blade_only.time = util::TimePoint::from_unix_seconds(4);
  blade_only.type = EventType::EcHwError;
  blade_only.blade = platform::BladeId{10};
  blade_only.cabinet = platform::CabinetId{100};
  records.push_back(blade_only);
  const LogStore store{std::move(records)};

  const auto t0 = util::TimePoint::from_unix_seconds(0);
  const auto t9 = util::TimePoint::from_unix_seconds(9);
  EXPECT_EQ(store.node_range(platform::NodeId{1}, t0, t9).size(), 1u);
  EXPECT_EQ(store.blade_range(platform::BladeId{10}, t0, t9).size(), 3u);
  EXPECT_EQ(store.cabinet_range(platform::CabinetId{100}, t0, t9).size(), 3u);
  EXPECT_EQ(store.cabinet_range(platform::CabinetId{101}, t0, t9).size(), 1u);
  EXPECT_EQ(store.node_range(platform::NodeId{99}, t0, t9).size(), 0u);
  // Window narrowing.
  EXPECT_EQ(store.blade_range(platform::BladeId{10}, util::TimePoint::from_unix_seconds(2),
                              util::TimePoint::from_unix_seconds(4))
                .size(),
            1u);
}

TEST(LogStoreTest, TypeIndexAndCounts) {
  std::vector<LogRecord> records;
  records.push_back(make_record(1, EventType::KernelPanic, 1));
  records.push_back(make_record(2, EventType::KernelPanic, 2));
  records.push_back(make_record(3, EventType::NodeBoot, 2));
  const LogStore store{std::move(records)};
  EXPECT_EQ(store.count_of_type(EventType::KernelPanic), 2u);
  EXPECT_EQ(store.count_of_type(EventType::OomKill), 0u);
  EXPECT_EQ(store.type_index(EventType::NodeBoot).size(), 1u);
  const auto in_window = store.type_range(EventType::KernelPanic,
                                          util::TimePoint::from_unix_seconds(2),
                                          util::TimePoint::from_unix_seconds(9));
  EXPECT_EQ(in_window.size(), 1u);
}

TEST(LogStoreTest, EmptyStore) {
  const LogStore store{std::vector<LogRecord>{}};
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.range(util::TimePoint{0}, util::TimePoint{100}).empty());
  EXPECT_TRUE(store.nodes().empty());
}

TEST(LogStoreTest, DefaultConstructedStoreAnswersEveryQueryEmpty) {
  // Every query on a default-constructed store must return the empty
  // answer instead of indexing unbuilt tables (the type_range subscript
  // used to be UB here).
  const LogStore store;
  const auto t0 = util::TimePoint{0};
  const auto t9 = util::TimePoint::from_unix_seconds(9);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.type_range(EventType::KernelPanic, t0, t9).empty());
  EXPECT_TRUE(store.type_index(EventType::KernelPanic).empty());
  EXPECT_EQ(store.count_of_type(EventType::KernelPanic), 0u);
  EXPECT_TRUE(store.node_range(platform::NodeId{1}, t0, t9).empty());
  EXPECT_TRUE(store.node_index(platform::NodeId{1}).empty());
  EXPECT_TRUE(store.range(t0, t9).empty());
  EXPECT_EQ(store.first_time(), util::TimePoint{});
  EXPECT_EQ(store.last_time(), util::TimePoint{});
}

// ------------------------------------------------------- StoreBuilder ----

/// Time-tied records tagged with their append order in `detail` (interned
/// into `symbols`); the sharded build must reproduce the global
/// stable_sort order exactly.
std::vector<LogRecord> tied_sequence(std::size_t n, std::uint64_t seed,
                                     SymbolTable& symbols) {
  util::Rng rng(seed);
  std::vector<LogRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto r = make_record(rng.uniform_int(0, 49), EventType::KernelPanic,
                         static_cast<std::uint32_t>(i % 7));
    r.detail = symbols.intern(std::to_string(i));
    out.push_back(r);
  }
  return out;
}

void expect_same_order(const LogStore& want, const LogStore& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].time, got[i].time) << i;
    ASSERT_EQ(want.detail(i), got.detail(i)) << i;
  }
}

TEST(StoreBuilderTest, MatchesGlobalStableSort) {
  SymbolTable symbols;
  const auto sequence = tied_sequence(1000, 31, symbols);
  const LogStore reference{std::vector<LogRecord>(sequence), symbols};

  StoreBuilder builder(64);  // ~16 shards
  util::Rng rng(32);
  std::size_t i = 0;
  while (i < sequence.size()) {
    // Batches of arbitrary size, down to one record, like the ingestion
    // pipeline's chunk retirement produces.
    const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 150));
    const std::size_t hi = std::min(sequence.size(), i + batch);
    // Every batch names the whole sequence table: absorbing it into the
    // builder's table keeps every id, so the Symbols stay valid.
    builder.append_batch({sequence.begin() + static_cast<std::ptrdiff_t>(i),
                          sequence.begin() + static_cast<std::ptrdiff_t>(hi)},
                         symbols);
    i = hi;
  }
  EXPECT_EQ(builder.record_count(), sequence.size());
  EXPECT_GT(builder.shard_count(), 1u);
  expect_same_order(reference, builder.build());
}

TEST(StoreBuilderTest, RemappedBatchMatchesGlobalStableSort) {
  SymbolTable symbols;
  const auto sequence = tied_sequence(500, 77, symbols);
  const LogStore reference{std::vector<LogRecord>(sequence), symbols};
  StoreBuilder builder(32);
  // append_batch remaps through absorb(); ids may differ but the resolved
  // text must not.
  builder.append_batch(std::vector<LogRecord>(sequence), symbols);
  expect_same_order(reference, builder.build());
}

TEST(StoreBuilderTest, OversizedBatchKeepsContiguity) {
  // A batch larger than shard_records becomes its own shard; interleaving
  // with one-record batches must still reproduce the stable order.
  SymbolTable symbols;
  const auto sequence = tied_sequence(300, 5, symbols);
  const LogStore reference{std::vector<LogRecord>(sequence), symbols};
  StoreBuilder builder(16);
  builder.append_batch({sequence[0]}, symbols);
  builder.append_batch({sequence.begin() + 1, sequence.begin() + 200}, symbols);
  for (std::size_t i = 200; i < sequence.size(); ++i) {
    builder.append_batch({sequence[i]}, symbols);
  }
  expect_same_order(reference, builder.build());
}

TEST(StoreBuilderTest, EmptyBuildYieldsUsableStore) {
  StoreBuilder builder;
  const LogStore store = builder.build();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.count_of_type(EventType::KernelPanic), 0u);
}

// ------------------------------------------------------- LogStore::extend --

/// Every section a snapshot of the store would hold — record rows with
/// padding zeroed, time/type columns, the four CSR offset and entry
/// arrays, nodes() and the symbol table — as name -> bytes.
std::map<std::string, std::vector<std::byte>> section_bytes(const LogStore& store) {
  util::Sections sections;
  store.append_sections(sections);
  std::map<std::string, std::vector<std::byte>> out;
  for (const auto& entry : sections.entries()) {
    out[entry.name].assign(entry.bytes.begin(), entry.bytes.end());
  }
  return out;
}

std::vector<std::uint32_t> as_vector(std::span<const std::uint32_t> span) {
  return {span.begin(), span.end()};
}

/// Checks `got` against `want`, the constructor over the same records:
/// section bytes, nodes() and every key's run in each index.
void expect_same_store(const LogStore& want, const LogStore& got) {
  EXPECT_EQ(section_bytes(want), section_bytes(got));
  EXPECT_EQ(want.nodes(), got.nodes());
  std::uint32_t max_key = static_cast<std::uint32_t>(kEventTypeCount);
  for (const LogRecord& r : want.records()) {
    if (r.has_node()) max_key = std::max(max_key, r.node.value);
    if (r.has_blade()) max_key = std::max(max_key, r.blade.value);
    if (r.has_cabinet()) max_key = std::max(max_key, r.cabinet.value);
  }
  const util::TimePoint all_begin{std::numeric_limits<std::int64_t>::min()};
  const util::TimePoint all_end{std::numeric_limits<std::int64_t>::max()};
  for (std::uint32_t k = 0; k <= max_key + 1; ++k) {
    EXPECT_EQ(as_vector(want.node_index(platform::NodeId{k})),
              as_vector(got.node_index(platform::NodeId{k})))
        << "node " << k;
    EXPECT_EQ(as_vector(want.blade_range(platform::BladeId{k}, all_begin, all_end)),
              as_vector(got.blade_range(platform::BladeId{k}, all_begin, all_end)))
        << "blade " << k;
    EXPECT_EQ(as_vector(want.cabinet_range(platform::CabinetId{k}, all_begin, all_end)),
              as_vector(got.cabinet_range(platform::CabinetId{k}, all_begin, all_end)))
        << "cabinet " << k;
    EXPECT_EQ(as_vector(want.type_index(static_cast<EventType>(k))),
              as_vector(got.type_index(static_cast<EventType>(k))))
        << "type " << k;
  }
}

/// Builds the base store from `base_records`, then checks that
/// extend(base, fresh) is byte-identical to the constructor over
/// base ++ fresh.  Each record's detail names its input position, so a
/// tie broken the wrong way shows up in the record bytes; the fresh
/// details reach extend() through a batch table of their own, in reverse,
/// so every fresh id differs from the id it must get.
void expect_extend_matches_constructor(std::vector<LogRecord> base_records,
                                       std::vector<LogRecord> fresh) {
  SymbolTable symbols;
  for (std::size_t i = 0; i < base_records.size(); ++i) {
    base_records[i].detail = symbols.intern("base" + std::to_string(i));
  }
  const LogStore base(base_records, symbols);
  std::vector<LogRecord> all(base.records().begin(), base.records().end());
  SymbolTable batch;
  for (std::size_t i = fresh.size(); i-- > 0;) batch.intern("fresh" + std::to_string(i));
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const std::string name = "fresh" + std::to_string(i);
    fresh[i].detail = symbols.intern(name);
    all.push_back(fresh[i]);
    fresh[i].detail = batch.intern(name);
  }
  const LogStore want(std::move(all), symbols);
  const LogStore got = LogStore::extend(base, std::move(fresh), batch);
  expect_same_store(want, got);
}

LogRecord blade_only(std::int64_t sec, std::uint32_t blade, std::uint32_t cabinet) {
  LogRecord r = make_record(sec, EventType::EcHwError, 0);
  r.node = platform::NodeId{};
  r.blade = platform::BladeId{blade};
  r.cabinet = platform::CabinetId{cabinet};
  return r;
}

LogRecord cabinet_only(std::int64_t sec, std::uint32_t cabinet) {
  LogRecord r = blade_only(sec, 0, cabinet);
  r.type = EventType::NodeHeartbeatFault;
  r.blade = platform::BladeId{};
  return r;
}

/// A small history over nodes 0-5, blades 0-2 and cabinets 0-1 between
/// t = 10 and t = 50, with ties.
std::vector<LogRecord> history() {
  return {make_record(10, EventType::NodeBoot, 0, 0, 0),
          make_record(20, EventType::KernelPanic, 3, 1, 0),
          blade_only(20, 2, 1),
          make_record(30, EventType::HardwareError, 5, 2, 1),
          cabinet_only(40, 1),
          make_record(50, EventType::LustreError, 1, 0, 0),
          make_record(50, EventType::MachineCheckException, 3, 1, 0)};
}

TEST(LogStoreExtendTest, AppendAfterLastRecord) {
  expect_extend_matches_constructor(
      history(), {make_record(60, EventType::KernelPanic, 3, 1, 0),
                  make_record(55, EventType::NodeBoot, 0, 0, 0),
                  make_record(70, EventType::LustreError, 4, 2, 1)});
}

TEST(LogStoreExtendTest, TiesAtTheLastTime) {
  expect_extend_matches_constructor(
      history(), {make_record(50, EventType::KernelPanic, 3, 1, 0),
                  make_record(50, EventType::KernelPanic, 1, 0, 0), blade_only(50, 1, 0)});
}

TEST(LogStoreExtendTest, FreshInsideHistory) {
  expect_extend_matches_constructor(
      history(), {make_record(60, EventType::NodeBoot, 5, 2, 1),
                  make_record(20, EventType::KernelPanic, 3, 1, 0),
                  make_record(30, EventType::OomKill, 2, 1, 0)});
}

TEST(LogStoreExtendTest, FreshBeforeFirstRecord) {
  expect_extend_matches_constructor(
      history(), {make_record(1, EventType::NodeBoot, 0, 0, 0), cabinet_only(5, 0)});
}

TEST(LogStoreExtendTest, IdsPastTheBaseKeySpace) {
  // Appended, then interleaved: both branches must grow the key spaces.
  const std::vector<LogRecord> fresh = {make_record(60, EventType::NodeBoot, 40, 2, 1),
                                        blade_only(61, 17, 1), cabinet_only(62, 9)};
  expect_extend_matches_constructor(history(), fresh);
  std::vector<LogRecord> interleaved = fresh;
  interleaved.push_back(make_record(15, EventType::KernelPanic, 41, 18, 10));
  expect_extend_matches_constructor(history(), interleaved);
}

TEST(LogStoreExtendTest, BladeOnlyAndCabinetOnlyRecords) {
  expect_extend_matches_constructor(
      history(), {blade_only(55, 0, 0), cabinet_only(56, 1), blade_only(57, 2, 1)});
  // A base without any node-scoped record, extended by one.
  expect_extend_matches_constructor({blade_only(10, 1, 0), cabinet_only(11, 0)},
                                    {make_record(12, EventType::NodeBoot, 2, 1, 0)});
}

TEST(LogStoreExtendTest, EmptyBase) {
  expect_extend_matches_constructor({}, {make_record(5, EventType::NodeBoot, 1, 0, 0),
                                         make_record(3, EventType::KernelPanic, 2, 1, 0)});
  expect_extend_matches_constructor({}, {cabinet_only(5, 3)});
}

TEST(LogStoreExtendTest, EmptyFresh) {
  expect_extend_matches_constructor(history(), {});
  expect_extend_matches_constructor({}, {});
}

TEST(LogStoreExtendTest, SeededRandomSweep) {
  util::Rng rng(2024);
  const auto random_record = [&rng] {
    const auto sec = rng.uniform_int(0, 40);  // dense ties
    const auto type = static_cast<EventType>(
        rng.uniform_int(0, static_cast<std::int64_t>(kEventTypeCount) - 1));
    LogRecord r = make_record(sec, type, static_cast<std::uint32_t>(rng.uniform_int(0, 30)),
                          static_cast<std::uint32_t>(rng.uniform_int(0, 8)),
                          static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
    // Drop each location level independently, including all three.
    if (rng.uniform_int(0, 3) == 0) r.node = platform::NodeId{};
    if (rng.uniform_int(0, 4) == 0) r.blade = platform::BladeId{};
    if (rng.uniform_int(0, 5) == 0) r.cabinet = platform::CabinetId{};
    return r;
  };
  for (int round = 0; round < 200; ++round) {
    std::vector<LogRecord> base(static_cast<std::size_t>(rng.uniform_int(0, 60)));
    for (LogRecord& r : base) r = random_record();
    std::vector<LogRecord> fresh(static_cast<std::size_t>(rng.uniform_int(0, 8)));
    for (LogRecord& r : fresh) {
      r = random_record();
      // Half the rounds are live tails: nothing earlier than the base.
      if (round % 2 == 0) r.time = r.time + util::Duration::seconds(40);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    expect_extend_matches_constructor(std::move(base), std::move(fresh));
  }
}

// ------------------------------------------------ extend() in place ----

/// A record at `sec` with random type and location (nodes 0-30, blades
/// 0-8, cabinets 0-3), each location level dropped independently.
LogRecord random_record(util::Rng& rng, std::int64_t sec) {
  const auto type = static_cast<EventType>(
      rng.uniform_int(0, static_cast<std::int64_t>(kEventTypeCount) - 1));
  LogRecord r = make_record(sec, type, static_cast<std::uint32_t>(rng.uniform_int(0, 30)),
                            static_cast<std::uint32_t>(rng.uniform_int(0, 8)),
                            static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
  if (rng.uniform_int(0, 3) == 0) r.node = platform::NodeId{};
  if (rng.uniform_int(0, 4) == 0) r.blade = platform::BladeId{};
  if (rng.uniform_int(0, 5) == 0) r.cabinet = platform::CabinetId{};
  return r;
}

/// A store grown by extend() one batch at a time, with every record so far
/// and the table naming each one's position, so the constructor over the
/// same records is the oracle at every step.
struct Chain {
  std::vector<LogRecord> all;
  SymbolTable symbols;
  LogStore store;
  std::string prefix = "r";  ///< of the names extended() gives fresh records

  explicit Chain(std::vector<LogRecord> base) : all(std::move(base)) {
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i].detail = symbols.intern("r" + std::to_string(i));
    }
    store = LogStore(all, symbols);
  }

  /// The store extended by `fresh`, which `all` and `symbols` absorb.
  /// Each fresh record's detail is a new string, handed to extend() in a
  /// batch table of its own.
  [[nodiscard]] LogStore extended(const LogStore& from, std::vector<LogRecord> fresh) {
    SymbolTable batch;
    for (LogRecord& r : fresh) {
      const std::string name = prefix + std::to_string(all.size());
      r.detail = symbols.intern(name);
      all.push_back(r);
      r.detail = batch.intern(name);
    }
    return LogStore::extend(from, std::move(fresh), batch);
  }

  void extend(std::vector<LogRecord> fresh) { store = extended(store, std::move(fresh)); }

  [[nodiscard]] LogStore oracle() const { return LogStore(all, symbols); }
};

TEST(LogStoreInPlaceTest, ChainedExtendsMatchTheConstructorAtEveryStep) {
  util::Rng rng(31);
  Chain chain(history());
  std::int64_t now = 50;
  for (int step = 0; step < 50; ++step) {
    std::vector<LogRecord> fresh(step % 2 == 0 ? 1 : static_cast<std::size_t>(rng.uniform_int(2, 6)));
    for (LogRecord& r : fresh) {
      r = random_record(rng, now + rng.uniform_int(0, 2));  // dense ties, never earlier
      if (step % 9 == 4) r.node = platform::NodeId{40 + static_cast<std::uint32_t>(step)};
      if (step % 11 == 5) r.blade = platform::BladeId{20 + static_cast<std::uint32_t>(step)};
      if (step % 13 == 6) r.cabinet = platform::CabinetId{9 + static_cast<std::uint32_t>(step)};
    }
    for (const LogRecord& r : fresh) now = std::max(now, r.time.unix_seconds());
    chain.extend(std::move(fresh));
    SCOPED_TRACE("step " + std::to_string(step));
    expect_same_store(chain.oracle(), chain.store);
  }
}

TEST(LogStoreInPlaceTest, ExtendingOneBaseTwiceLeavesEveryStoreIntact) {
  // One extend of a constructed store copies it into growable storage, so
  // `tip` may append in place; the second extend of the same base must not.
  Chain chain(history());
  chain.extend({make_record(55, EventType::NodeBoot, 4, 1, 0)});
  Chain other = chain;  // a second history from the same base
  other.prefix = "o";    // whose new strings are not `chain`'s
  const LogStore tip = chain.store;
  const auto tip_bytes = section_bytes(tip);

  const LogStore first = chain.extended(
      tip, {make_record(60, EventType::KernelPanic, 4, 1, 0), blade_only(60, 2, 1)});
  const auto first_bytes = section_bytes(first);
  const LogStore second = other.extended(
      tip, {make_record(58, EventType::LustreError, 4, 1, 0), cabinet_only(59, 1),
            make_record(61, EventType::NodeBoot, 0, 0, 0)});
  expect_same_store(chain.oracle(), first);
  expect_same_store(other.oracle(), second);
  EXPECT_EQ(section_bytes(first), first_bytes);
  EXPECT_EQ(section_bytes(tip), tip_bytes);

  // Both extends interned new strings at the same ids, `first` into the
  // shared table and `second` into a copy; each store resolves only its own.
  const auto id = static_cast<std::uint32_t>(tip.symbols().size());  // "", r0..r7
  const auto resolve = [](const LogStore& store, std::uint32_t symbol) {
    LogRecord probe;
    probe.detail = Symbol{symbol};
    return std::string(store.detail(probe));
  };
  ASSERT_EQ(first.symbols().size(), id + 2u);
  ASSERT_EQ(second.symbols().size(), id + 3u);
  EXPECT_EQ(resolve(tip, id), "");
  EXPECT_EQ(resolve(first, id), "r8");
  EXPECT_EQ(resolve(first, id + 1), "r9");
  EXPECT_EQ(resolve(first, id + 2), "");
  EXPECT_EQ(resolve(second, id), "o8");
  EXPECT_EQ(resolve(second, id + 2), "o10");

  // `first` is still its chain's tip: growing it leaves `second` alone.
  const auto second_bytes = section_bytes(second);
  const LogStore third = chain.extended(first, {make_record(70, EventType::KernelPanic, 4, 1, 0)});
  expect_same_store(chain.oracle(), third);
  EXPECT_EQ(section_bytes(second), second_bytes);
  EXPECT_EQ(section_bytes(first), first_bytes);
  EXPECT_EQ(resolve(third, id + 2), "r10");
  EXPECT_EQ(resolve(first, id + 2), "");
  EXPECT_EQ(first.symbols().size(), id + 2u);
}

TEST(LogStoreInPlaceTest, FullRunsMoveAndStayExact) {
  // Node 7 starts with a one-entry run; a thousand appends fill it and
  // move it again and again.
  std::vector<LogRecord> base = history();
  base.push_back(make_record(50, EventType::NodeBoot, 7, 1, 0));
  Chain hot(base);
  for (std::int64_t i = 0; i < 1000; ++i) {
    hot.extend({make_record(60 + i, EventType::KernelPanic, 7, 1, 0)});
    if (i % 50 == 49 || i < 20) {
      SCOPED_TRACE("hot append " + std::to_string(i));
      expect_same_store(hot.oracle(), hot.store);
    }
  }
  expect_same_store(hot.oracle(), hot.store);

  // Round robin over every key of every index.
  Chain spread(history());
  for (std::uint32_t i = 0; i < 1000; ++i) {
    spread.extend({make_record(60 + i, static_cast<EventType>(i % kEventTypeCount), i % 31,
                               i % 9, i % 4)});
    if (i % 100 == 99) {
      SCOPED_TRACE("round-robin append " + std::to_string(i));
      expect_same_store(spread.oracle(), spread.store);
    }
  }
}

TEST(LogStoreInPlaceTest, TailAppendsCopyAConstantPerRecord) {
  // Every record, base and fresh, has a detail string of its own, so the
  // symbol table grows with the store.
  util::Rng rng(5);
  SymbolTable symbols;
  std::vector<LogRecord> base(10000);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = random_record(rng, static_cast<std::int64_t>(i / 4));
    base[i].detail = symbols.intern("d" + std::to_string(i));
  }
  LogStore store(base, symbols);
  util::MetricsRegistry registry;
  util::install_metrics(&registry);
  for (std::int64_t i = 0; i < 1000; ++i) {
    const std::string name = "d" + std::to_string(base.size());
    LogRecord r = random_record(rng, 3000 + i);
    r.detail = symbols.intern(name);
    base.push_back(r);
    SymbolTable batch;
    r.detail = batch.intern(name);
    store = LogStore::extend(store, {r}, batch);
  }
  util::install_metrics(nullptr);
  // One copy of the base into growable storage (rows, two columns, at most
  // four index entries per row and a string per row), then runs that move
  // now and then.  Copying the whole store, or only its 10,001 strings, on
  // every extend would count 10M and more.
  const std::uint64_t copied = registry.counter("hpcfail.store.extend_copied").value();
  EXPECT_GT(copied, 0u);
  EXPECT_LE(copied, 10u * (10000 + 1000));
  EXPECT_EQ(store.symbols().size(), symbols.size());
  expect_same_store(LogStore(base, symbols), store);
}

TEST(LogStoreInPlaceTest, ReadersOfEarlierEpochsRaceTheWriter) {
  // Record k carries job id k.  The base shares seven details; every
  // fresh record gets "d<k>", a string of its own, so the writer interns a
  // new string per record (outgrowing the table's headroom again and
  // again) while the readers resolve the details of every row they scan.
  util::Rng rng(17);
  SymbolTable symbols;
  const auto name = [](std::int64_t k) {
    return k < 2000 ? "base" + std::to_string(k % 7) : "d" + std::to_string(k);
  };
  const auto numbered = [&name](LogRecord r, std::size_t k, SymbolTable& table) {
    r.job_id = static_cast<std::int64_t>(k);
    r.detail = table.intern(name(r.job_id));
    return r;
  };
  std::vector<LogRecord> base(2000);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = numbered(random_record(rng, static_cast<std::int64_t>(i / 3)), i, symbols);
  }
  std::mutex mutex;
  auto current = std::make_shared<const LogStore>(LogStore(base, symbols));
  const auto published = [&] {
    const std::scoped_lock lock(mutex);
    return current;
  };
  std::atomic<bool> done{false};
  std::atomic<std::size_t> scans{0};
  const util::TimePoint all_begin{std::numeric_limits<std::int64_t>::min()};
  const util::TimePoint all_end{std::numeric_limits<std::int64_t>::max()};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const LogStore> epoch = published();
        const LogStore& s = *epoch;
        const std::size_t n = s.size();
        std::int64_t last = std::numeric_limits<std::int64_t>::min();
        for (const LogRecord& r : s.range(all_begin, all_end)) {
          EXPECT_LE(last, r.time.usec);
          last = r.time.usec;
          EXPECT_EQ(s.detail(r), name(r.job_id));
        }
        std::size_t typed = 0;
        for (std::size_t k = 0; k < kEventTypeCount; ++k) {
          for (const std::uint32_t i : s.type_range(static_cast<EventType>(k), all_begin, all_end)) {
            EXPECT_LT(i, n);
            EXPECT_EQ(static_cast<std::size_t>(s[i].type), k);
            ++typed;
          }
        }
        EXPECT_EQ(typed, n);
        for (std::uint32_t node = 0; node < 31; ++node) {
          for (const std::uint32_t i : s.node_range(platform::NodeId{node}, all_begin, all_end)) {
            EXPECT_LT(i, n);
            EXPECT_EQ(s[i].node.value, node);
          }
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (scans.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  for (std::int64_t k = 1; k <= 200; ++k) {
    std::vector<LogRecord> fresh(static_cast<std::size_t>(rng.uniform_int(1, 3)));
    SymbolTable batch;
    for (LogRecord& r : fresh) {
      const LogRecord record = random_record(rng, 1000 + k);
      r = numbered(record, base.size(), batch);
      base.push_back(numbered(record, base.size(), symbols));
    }
    auto next = std::make_shared<const LogStore>(LogStore::extend(*published(), fresh, batch));
    const std::scoped_lock lock(mutex);
    current = std::move(next);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(scans.load(), 0u);
  expect_same_store(LogStore(base, symbols), *current);
}

// ------------------------------------------- every way to build a store ----

/// A store is sorted and indexed by construction, whichever way it is made:
/// the sorting constructor, from_sorted, StoreBuilder, extend (both its
/// merge and its append branch) and from_sections build the same rows,
/// columns, indexes, nodes() and symbols from the same records.  Each
/// record's detail names its input position, so a tie broken the wrong way
/// shows up in the bytes.  The records before t = 60 come first in input
/// order, so a cut there is a split in time.
TEST(LogStoreConstructionTest, EveryWayInBuildsTheSameStore) {
  util::Rng rng(99);
  std::vector<LogRecord> records(600);
  for (LogRecord& r : records) {
    const auto type = static_cast<EventType>(
        rng.uniform_int(0, static_cast<std::int64_t>(kEventTypeCount) - 1));
    r = make_record(rng.uniform_int(0, 120), type,
                    static_cast<std::uint32_t>(rng.uniform_int(0, 40)),
                    static_cast<std::uint32_t>(rng.uniform_int(0, 10)),
                    static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
    if (rng.uniform_int(0, 3) == 0) r.node = platform::NodeId{};
    if (rng.uniform_int(0, 4) == 0) r.blade = platform::BladeId{};
    if (rng.uniform_int(0, 5) == 0) r.cabinet = platform::CabinetId{};
  }
  const util::TimePoint split = util::TimePoint::from_unix_seconds(60);
  const auto early = static_cast<std::size_t>(
      std::stable_partition(records.begin(), records.end(),
                            [split](const LogRecord& r) { return r.time < split; }) -
      records.begin());
  SymbolTable symbols;
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].detail = symbols.intern("r" + std::to_string(i));
  }
  const LogStore want(records, symbols);
  const auto want_bytes = section_bytes(want);
  ASSERT_EQ(want.size(), records.size());

  std::vector<LogRecord> sorted = records;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const LogRecord& a, const LogRecord& b) { return a.time < b.time; });
  EXPECT_EQ(section_bytes(LogStore::from_sorted(std::move(sorted), symbols)), want_bytes);

  StoreBuilder builder(64);
  for (std::size_t i = 0; i < records.size(); i += 50) {  // unsorted chunks
    const auto lo = records.begin() + static_cast<std::ptrdiff_t>(i);
    builder.append_batch({lo, lo + 50}, symbols);
  }
  EXPECT_EQ(section_bytes(builder.build()), want_bytes);

  // extend() of the first `cut` records, with only their strings, by the
  // rest, whose strings are new to it and arrive in a batch table of their
  // own (in reverse, so no batch id is the id the store gives it).
  const auto extended = [&](std::size_t cut) {
    const LogStore base({records.begin(), records.begin() + static_cast<std::ptrdiff_t>(cut)},
                        SymbolTable(symbols, cut + 1, 0));
    std::vector<LogRecord> fresh(records.begin() + static_cast<std::ptrdiff_t>(cut),
                                 records.end());
    SymbolTable batch;
    for (auto r = fresh.rbegin(); r != fresh.rend(); ++r) batch.intern(symbols.view(r->detail));
    for (LogRecord& r : fresh) r.detail = batch.intern(symbols.view(r.detail));
    EXPECT_EQ(base.symbols().size(), cut + 1);
    return LogStore::extend(base, std::move(fresh), batch);
  };
  // A cut among the later records, so the suffix interleaves the prefix
  // (merge branch).
  const std::size_t interleaved = (early + records.size()) / 2;
  const auto latest_before = std::max_element(
      records.begin(), records.begin() + static_cast<std::ptrdiff_t>(interleaved),
      [](const LogRecord& a, const LogRecord& b) { return a.time < b.time; });
  const auto earliest_after = std::min_element(
      records.begin() + static_cast<std::ptrdiff_t>(interleaved), records.end(),
      [](const LogRecord& a, const LogRecord& b) { return a.time < b.time; });
  ASSERT_LT(earliest_after->time, latest_before->time);
  EXPECT_EQ(section_bytes(extended(interleaved)), want_bytes);
  // A split in time, so the suffix starts at the prefix's end (append branch).
  ASSERT_GT(early, 0u);
  ASSERT_LT(early, records.size());
  EXPECT_EQ(section_bytes(extended(early)), want_bytes);

  util::Sections sections;
  want.append_sections(sections);
  util::SectionMap map;
  for (const auto& entry : sections.entries()) map.add(entry.name, entry.bytes);
  EXPECT_EQ(section_bytes(LogStore::from_sections(map)), want_bytes);
}

}  // namespace
}  // namespace hpcfail::logmodel
