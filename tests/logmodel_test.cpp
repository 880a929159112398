// Unit and property tests for src/logmodel: taxonomy consistency, LogStore.
#include <gtest/gtest.h>

#include "logmodel/cause.hpp"
#include "logmodel/event_type.hpp"
#include "logmodel/log_store.hpp"
#include <stdexcept>

#include "logmodel/store_builder.hpp"
#include "util/rng.hpp"

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
    EXPECT_EQ(event_type_from_string(name), type);
  }
  EXPECT_FALSE(event_type_from_string("NoSuchEvent").has_value());
}

class TaxonomyClassification : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TaxonomyClassification, ClassesAreConsistent) {
  const auto type = static_cast<EventType>(GetParam());
  const EventClass cls = event_class(type);
  // Health faults and SEDC warnings are external; they never overlap.
  if (is_health_fault(type) || is_sedc_warning(type)) {
    EXPECT_EQ(cls, EventClass::External) << to_string(type);
    EXPECT_FALSE(is_health_fault(type) && is_sedc_warning(type)) << to_string(type);
  }
  // Failure markers and internal indicators are internal and disjoint.
  if (is_failure_marker(type) || is_internal_indicator(type)) {
    EXPECT_EQ(cls, EventClass::Internal) << to_string(type);
    EXPECT_FALSE(is_failure_marker(type) && is_internal_indicator(type)) << to_string(type);
  }
  // External lead-time indicators are external events.
  if (is_external_indicator(type)) {
    EXPECT_EQ(cls, EventClass::External) << to_string(type);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, TaxonomyClassification,
                         ::testing::Range<std::size_t>(0, kEventTypeCount));

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

TEST(LogStoreTest, IncrementalAddRequiresFinalize) {
  LogStore store;
  store.add(make_record(5, EventType::NodeBoot, 1));
  store.add(make_record(1, EventType::KernelPanic, 1));
  EXPECT_FALSE(store.finalized());
  store.finalize();
  EXPECT_TRUE(store.finalized());
  EXPECT_EQ(store[0].type, EventType::KernelPanic);
  EXPECT_EQ(store.nodes().size(), 1u);
}

TEST(LogStoreTest, EmptyStore) {
  const LogStore store{std::vector<LogRecord>{}};
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.range(util::TimePoint{0}, util::TimePoint{100}).empty());
  EXPECT_TRUE(store.nodes().empty());
}

TEST(LogStoreTest, DefaultConstructedStoreAnswersEveryQueryEmpty) {
  // A default-constructed store is trivially finalized; every query must
  // return the empty answer instead of indexing unbuilt tables (the
  // type_range subscript used to be UB here).
  const LogStore store;
  const auto t0 = util::TimePoint{0};
  const auto t9 = util::TimePoint::from_unix_seconds(9);
  EXPECT_TRUE(store.finalized());
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

TEST(LogStoreTest, QueriesOnNonFinalizedStoreThrow) {
  LogStore store;
  store.add(make_record(5, EventType::NodeBoot, 1));
  ASSERT_FALSE(store.finalized());
  const auto t0 = util::TimePoint{0};
  const auto t9 = util::TimePoint::from_unix_seconds(9);
  EXPECT_THROW((void)store.first_time(), std::logic_error);
  EXPECT_THROW((void)store.last_time(), std::logic_error);
  EXPECT_THROW((void)store.range(t0, t9), std::logic_error);
  EXPECT_THROW((void)store.node_range(platform::NodeId{1}, t0, t9), std::logic_error);
  EXPECT_THROW((void)store.blade_range(platform::BladeId{0}, t0, t9), std::logic_error);
  EXPECT_THROW((void)store.cabinet_range(platform::CabinetId{0}, t0, t9), std::logic_error);
  EXPECT_THROW((void)store.type_range(EventType::NodeBoot, t0, t9), std::logic_error);
  EXPECT_THROW((void)store.count_of_type(EventType::NodeBoot), std::logic_error);
  EXPECT_THROW((void)store.node_index(platform::NodeId{1}), std::logic_error);
  EXPECT_THROW((void)store.type_index(EventType::NodeBoot), std::logic_error);
  EXPECT_THROW((void)store.nodes(), std::logic_error);
  store.finalize();
  EXPECT_EQ(store.first_time().unix_seconds(), 5);
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
  builder.symbols() = symbols;  // sequence Symbols stay valid in the builder
  util::Rng rng(32);
  std::size_t i = 0;
  while (i < sequence.size()) {
    // Mixed single appends and batches of arbitrary size, like the
    // ingestion pipeline's chunk retirement produces.
    const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 150));
    if (batch == 1) {
      builder.append(sequence[i++]);
    } else {
      const std::size_t hi = std::min(sequence.size(), i + batch);
      builder.append_batch({sequence.begin() + static_cast<std::ptrdiff_t>(i),
                            sequence.begin() + static_cast<std::ptrdiff_t>(hi)});
      i = hi;
    }
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
  // The two-arg overload remaps through absorb(); ids differ but the
  // resolved text must not.
  builder.append_batch(std::vector<LogRecord>(sequence), symbols);
  expect_same_order(reference, builder.build());
}

TEST(StoreBuilderTest, OversizedBatchKeepsContiguity) {
  // A batch larger than shard_records becomes its own shard; interleaving
  // with single appends must still reproduce the stable order.
  SymbolTable symbols;
  const auto sequence = tied_sequence(300, 5, symbols);
  const LogStore reference{std::vector<LogRecord>(sequence), symbols};
  StoreBuilder builder(16);
  builder.symbols() = symbols;
  builder.append(sequence[0]);
  builder.append_batch({sequence.begin() + 1, sequence.begin() + 200});
  for (std::size_t i = 200; i < sequence.size(); ++i) builder.append(sequence[i]);
  expect_same_order(reference, builder.build());
}

TEST(StoreBuilderTest, EmptyBuildYieldsUsableStore) {
  StoreBuilder builder;
  const LogStore store = builder.build();
  EXPECT_TRUE(store.finalized());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.count_of_type(EventType::KernelPanic), 0u);
}

}  // namespace
}  // namespace hpcfail::logmodel
