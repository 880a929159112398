// Persistence suite for the storage-layer serialization stack:
//   - util/serialize.hpp section vocabulary (Sections / SectionMap),
//   - the hpcfail.store.v1 container (util/snapshot.hpp) including the full
//     corrupt-file rejection matrix — truncation, bad magic, future
//     version, bit flips at every checksum tier — each yielding the right
//     structured SnapshotError and never a partial structure,
//   - the per-structure hooks (CsrIndex, SymbolTable, JobTable; LogStore's
//     is covered in logmodel_test),
//   - the corpus-level round trip: a loaded snapshot must drive
//     markdown_report to bytes identical to the text-parse path, on the
//     same S2 week/seed-42 corpus the committed BENCH_pipeline.json pins,
//   - the two snapshot fault sites (store.snapshot.write_io / read_io).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/markdown_report.hpp"
#include "faultsim/simulator.hpp"
#include "jobs/job_table.hpp"
#include "loggen/corpus.hpp"
#include "logmodel/symbol_table.hpp"
#include "parsers/corpus_parser.hpp"
#include "parsers/snapshot.hpp"
#include "serve/server.hpp"
#include "util/csr.hpp"
#include "util/fault.hpp"
#include "util/serialize.hpp"
#include "util/snapshot.hpp"

namespace hpcfail {
namespace {

using util::SectionError;
using util::SectionMap;
using util::Sections;
using util::SnapshotError;

// ---------------------------------------------------------- test support ----

/// Per-test scratch file under /tmp, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("/tmp/hpcfail_snapshot_test." + name) {
    std::filesystem::remove(path_);
  }
  ~ScratchFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

class ScopedInjector {
 public:
  explicit ScopedInjector(util::FaultInjector& inj) {
    util::install_fault_injector(&inj);
  }
  ~ScopedInjector() { util::install_fault_injector(nullptr); }
  ScopedInjector(const ScopedInjector&) = delete;
  ScopedInjector& operator=(const ScopedInjector&) = delete;
};

/// Reader-side view over writer-side sections, skipping the file container
/// (the hooks compose over any SectionMap, not just a loaded snapshot).
SectionMap map_of(const Sections& sections) {
  SectionMap map;
  for (const auto& e : sections.entries()) map.add(e.name, e.bytes);
  return map;
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

void put_le32(std::vector<std::byte>& bytes, std::size_t at, std::uint32_t v) {
  ASSERT_LE(at + 4, bytes.size());
  std::memcpy(bytes.data() + at, &v, 4);  // host is little-endian by static_assert
}

/// Recomputes and patches the trailing whole-file CRC, so a test can prove
/// the *section* checksum tier catches a flip the file tier would otherwise
/// mask.
void repair_file_crc(std::vector<std::byte>& bytes) {
  ASSERT_GE(bytes.size(), 4u);
  const auto crc =
      util::crc32(std::span<const std::byte>(bytes.data(), bytes.size() - 4));
  put_le32(bytes, bytes.size() - 4, crc);
}

// ------------------------------------------------------ serialize layer ----

TEST(Crc32Test, KnownVectorAndChaining) {
  // The canonical CRC-32C check value: crc of the ASCII digits "123456789".
  const char digits[] = "123456789";
  const auto span = std::as_bytes(std::span<const char>(digits, 9));
  EXPECT_EQ(util::crc32(span), 0xE3069283u);
  EXPECT_EQ(util::crc32(std::span<const std::byte>{}), 0u);

  // Incremental updates chain: crc(a+b) == crc(b, seed=crc(a)).
  const auto head = span.subspan(0, 4);
  const auto tail = span.subspan(4);
  EXPECT_EQ(util::crc32(tail, util::crc32(head)), 0xE3069283u);
}

TEST(SectionsTest, DuplicateNameThrows) {
  Sections sections;
  const std::vector<std::uint32_t> v{1, 2, 3};
  sections.add_vector("store.times", v);
  EXPECT_THROW(sections.add_vector("store.times", v), SectionError);
}

TEST(SectionMapTest, TypedAccessorsValidate) {
  Sections sections;
  const std::vector<std::uint32_t> v{1, 2, 3};
  sections.add_vector("a", v);
  sections.add_scalar("b", std::uint64_t{42});
  const SectionMap map = map_of(sections);

  EXPECT_EQ(map.vector_of<std::uint32_t>("a"), v);
  EXPECT_EQ(map.scalar_of<std::uint64_t>("b"), 42u);
  // 12 bytes is not a multiple of 8, and not exactly 4.
  EXPECT_THROW((void)map.vector_of<std::uint64_t>("a"), SectionError);
  EXPECT_THROW((void)map.scalar_of<std::uint32_t>("b"), SectionError);
  try {
    (void)map.require("absent");
    FAIL() << "require() must throw for a missing section";
  } catch (const SectionError& e) {
    EXPECT_EQ(e.kind(), SectionError::Kind::Missing);
    EXPECT_EQ(e.section(), "absent");
  }
}

// ------------------------------------------------------- container layer ----

Sections small_sections(const std::vector<std::uint32_t>& numbers,
                        const std::string& text) {
  Sections sections;
  sections.add_vector("test.numbers", numbers);
  sections.add("test.empty", {});
  std::vector<std::byte> owned(text.size());
  std::memcpy(owned.data(), text.data(), text.size());
  sections.add_owned("test.text", std::move(owned));
  return sections;
}

TEST(SnapshotContainerTest, WriteReadRoundtrip) {
  const ScratchFile file("roundtrip");
  const std::vector<std::uint32_t> numbers{3, 1, 4, 1, 5, 9, 2, 6};
  const std::string text = "persisted free-form bytes";
  ASSERT_FALSE(util::write_snapshot(file.path(), small_sections(numbers, text)));

  const auto read = util::read_snapshot(file.path());
  ASSERT_TRUE(read.ok()) << read.error->to_string();
  const auto& snap = *read.snapshot;
  EXPECT_EQ(snap.version(), util::kSnapshotFormatVersion);
  EXPECT_EQ(snap.file_bytes(), std::filesystem::file_size(file.path()));

  // Table preserves writer order; payloads start 64-byte aligned.
  ASSERT_EQ(snap.table().size(), 3u);
  EXPECT_EQ(snap.table()[0].name, "test.numbers");
  EXPECT_EQ(snap.table()[1].name, "test.empty");
  EXPECT_EQ(snap.table()[2].name, "test.text");
  for (const auto& entry : snap.table()) {
    EXPECT_EQ(entry.offset % util::kSnapshotAlign, 0u) << entry.name;
  }

  EXPECT_EQ(snap.sections().vector_of<std::uint32_t>("test.numbers"), numbers);
  EXPECT_EQ(snap.sections().require("test.empty").size(), 0u);
  const auto text_bytes = snap.sections().require("test.text");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(text_bytes.data()),
                        text_bytes.size()),
            text);
}

TEST(SnapshotContainerTest, OverlongSectionNameRejectedAtWrite) {
  const ScratchFile file("longname");
  Sections sections;
  const std::vector<std::uint32_t> v{1};
  sections.add_vector(std::string(util::kSnapshotMaxName + 1, 'x'), v);
  const auto err = util::write_snapshot(file.path(), sections);
  ASSERT_TRUE(err);
  EXPECT_EQ(err->kind, SnapshotError::Kind::BadSection);
}

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(util::write_snapshot(
        file_.path(), small_sections({3, 1, 4, 1, 5, 9, 2, 6}, "payload")));
    bytes_ = read_file(file_.path());
    ASSERT_GT(bytes_.size(), 200u);
  }

  /// Writes the mutated bytes and returns the read error (which must exist).
  SnapshotError reject(const std::vector<std::byte>& bytes) {
    const ScratchFile mutated("corrupt");
    write_file(mutated.path(), bytes);
    auto read = util::read_snapshot(mutated.path());
    EXPECT_FALSE(read.ok()) << "corrupt file validated clean";
    EXPECT_FALSE(read.snapshot.has_value()) << "error result still carries data";
    return read.ok() ? SnapshotError{} : *read.error;
  }

  ScratchFile file_{"corruption_base"};
  std::vector<std::byte> bytes_;
};

TEST_F(SnapshotCorruption, TruncatedFile) {
  auto bytes = bytes_;
  bytes.resize(bytes.size() - 10);
  EXPECT_EQ(reject(bytes).kind, SnapshotError::Kind::Truncated);
  // Below even the fixed header there is nothing to validate against.
  bytes.resize(10);
  EXPECT_EQ(reject(bytes).kind, SnapshotError::Kind::Truncated);
}

TEST_F(SnapshotCorruption, WrongMagic) {
  auto bytes = bytes_;
  bytes[0] = std::byte{'X'};
  EXPECT_EQ(reject(bytes).kind, SnapshotError::Kind::BadMagic);
}

TEST_F(SnapshotCorruption, FutureVersionReportedBeforeChecksums) {
  // Only the version field is patched — every CRC in the file is now stale,
  // but a reader must still say "version 99" rather than "corrupt", or
  // upgraded formats would be undiagnosable.
  auto bytes = bytes_;
  put_le32(bytes, 16, 99);
  const auto err = reject(bytes);
  EXPECT_EQ(err.kind, SnapshotError::Kind::BadVersion);
  EXPECT_NE(err.message.find("99"), std::string::npos);
}

TEST_F(SnapshotCorruption, PayloadFlipFailsFileChecksum) {
  auto bytes = bytes_;
  bytes[bytes.size() - 20] ^= std::byte{0x01};
  EXPECT_EQ(reject(bytes).kind, SnapshotError::Kind::FileChecksum);
}

TEST_F(SnapshotCorruption, PayloadFlipBehindRepairedFileCrcFailsSectionChecksum) {
  // Flip a byte *inside* a section payload (located via the table, so the
  // flip cannot land in alignment padding, which only the file CRC covers)
  // and repair the trailing file CRC: the per-section tier must still
  // catch it, naming the section.
  const auto clean = util::read_snapshot(file_.path());
  ASSERT_TRUE(clean.ok());
  const auto& target = clean.snapshot->table().front();
  ASSERT_GT(target.length, 0u);

  auto bytes = bytes_;
  bytes[target.offset + 1] ^= std::byte{0x01};
  repair_file_crc(bytes);
  const auto err = reject(bytes);
  EXPECT_EQ(err.kind, SnapshotError::Kind::SectionChecksum);
  EXPECT_EQ(err.section, target.name);
}

TEST_F(SnapshotCorruption, TableFlipBehindRepairedFileCrcFailsTableChecksum) {
  // Flip a byte of a table entry's stored CRC (header is 64 bytes, entries
  // 64 bytes each; the per-entry CRC lives at entry offset 56).
  auto bytes = bytes_;
  bytes[64 + 56] ^= std::byte{0x01};
  repair_file_crc(bytes);
  const auto err = reject(bytes);
  EXPECT_EQ(err.kind, SnapshotError::Kind::SectionChecksum);
  EXPECT_EQ(err.section, "(section table)");
}

TEST(SnapshotContainerTest, MissingFileIsIoError) {
  const auto read = util::read_snapshot("/tmp/hpcfail_no_such_snapshot.snap");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error->kind, SnapshotError::Kind::Io);
}

// -------------------------------------------------- per-structure hooks ----

TEST(CsrIndexSnapshotTest, RoundtripAndInvariantValidation) {
  util::CsrIndex<std::uint32_t> index;
  index.offsets = {0, 2, 2, 3};
  index.entries = {5, 6, 7};

  Sections sections;
  index.append_sections(sections, "idx");
  const auto back =
      util::CsrIndex<std::uint32_t>::from_sections(map_of(sections), "idx");
  EXPECT_EQ(back.offsets, index.offsets);
  EXPECT_EQ(back.entries, index.entries);
  EXPECT_EQ(back.of(0).size(), 2u);
  EXPECT_EQ(back.of(1).size(), 0u);
  EXPECT_EQ(back.of(2).size(), 1u);
  EXPECT_EQ(back.of(99).size(), 0u);  // past the built range: empty, no UB

  const auto rejects = [](std::vector<std::uint32_t> offsets,
                          std::vector<std::uint32_t> entries) {
    util::CsrIndex<std::uint32_t> bad;
    bad.offsets = std::move(offsets);
    bad.entries = std::move(entries);
    Sections s;
    bad.append_sections(s, "idx");
    EXPECT_THROW(
        (void)util::CsrIndex<std::uint32_t>::from_sections(map_of(s), "idx"),
        SectionError);
  };
  rejects({}, {5});            // empty offsets with entries
  rejects({1, 3}, {5, 6, 7});  // front != 0
  rejects({0, 2}, {5, 6, 7});  // back != entries.size()
  rejects({0, 2, 1, 3}, {5, 6, 7});  // non-monotone
}

TEST(SymbolTableSnapshotTest, RoundtripPreservesIdsAndBytes) {
  logmodel::SymbolTable symbols;
  const auto a = symbols.intern("alpha");
  const auto b = symbols.intern("beta");
  const auto c = symbols.intern("");  // maps to the shared empty symbol

  Sections sections;
  symbols.append_sections(sections, "sym");
  const auto back =
      logmodel::SymbolTable::from_sections(map_of(sections), "sym");
  ASSERT_EQ(back.size(), symbols.size());
  EXPECT_EQ(back.view(a), "alpha");
  EXPECT_EQ(back.view(b), "beta");
  EXPECT_EQ(back.view(c), "");

  // A dropped fence byte breaks the offsets/payload agreement.
  Sections bad;
  symbols.append_sections(bad, "sym");
  SectionMap map;
  for (const auto& e : bad.entries()) {
    auto bytes = e.bytes;
    if (e.name == "sym.bytes") bytes = bytes.subspan(0, bytes.size() - 1);
    map.add(e.name, bytes);
  }
  EXPECT_THROW((void)logmodel::SymbolTable::from_sections(map, "sym"),
               SectionError);
}

const faultsim::SimulationResult& small_sim() {
  static const faultsim::SimulationResult sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S1, 1, 7))
          .run();
  return sim;
}

TEST(JobTableSnapshotTest, RoundtripPreservesJobsAndNodeIndex) {
  const jobs::JobTable table = jobs::JobTable::from_jobs(small_sim().jobs);
  ASSERT_GT(table.size(), 0u);

  Sections sections;
  table.append_sections(sections, "jobs");
  const auto back = jobs::JobTable::from_sections(map_of(sections), "jobs");

  // Every section saves the same bytes again: rows, pool ids and texts,
  // node-list layout and the node index.
  Sections again;
  back.append_sections(again, "jobs");
  ASSERT_EQ(again.size(), sections.size());
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const auto& want = sections.entries()[i];
    const auto& got = again.entries()[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_TRUE(std::ranges::equal(got.bytes, want.bytes)) << want.name << " differs";
  }
  // by_id_ and by_node_ must answer identically after the rebuild.
  for (const auto& job : table.rows()) {
    const auto* found = back.find(job.job_id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->apid, job.apid);
    for (const auto node : table.nodes(job)) {
      const auto* want_hit = table.job_on_node_at(node, job.start);
      const auto* got_hit = back.job_on_node_at(node, job.start);
      ASSERT_EQ(want_hit != nullptr, got_hit != nullptr);
      if (want_hit != nullptr) {
        EXPECT_EQ(got_hit->job_id, want_hit->job_id);
      }
    }
  }
}

// -------------------------------------------------- corpus-level equality ----

/// The acceptance corpus: one simulated S2 week, seed 42 — the same corpus
/// BENCH_pipeline.json measures.
TEST(CorpusSnapshotTest, LoadedSnapshotReportsByteIdenticalToTextParse) {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S2, 7, 42))
          .run();
  const auto corpus = loggen::build_corpus(sim);
  const auto parsed = parsers::parse_corpus(corpus);
  ASSERT_GT(parsed.parsed_records, 0u);

  const ScratchFile file("corpus_s2");
  ASSERT_FALSE(parsers::save_snapshot(parsed, file.path()));
  const auto loaded = parsers::load_snapshot(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.error->to_string();

  // Window, accounting and label survive the round trip.
  EXPECT_EQ(loaded.system.label, parsed.system.label);
  EXPECT_EQ(loaded.begin.usec, parsed.begin.usec);
  EXPECT_EQ(loaded.days, parsed.days);
  EXPECT_EQ(loaded.total_lines, parsed.total_lines);
  EXPECT_EQ(loaded.parsed_records, parsed.parsed_records);
  EXPECT_EQ(loaded.skipped_lines, parsed.skipped_lines);
  ASSERT_EQ(loaded.store.size(), parsed.store.size());
  ASSERT_EQ(loaded.jobs.size(), parsed.jobs.size());

  const auto report_of = [&corpus](const parsers::ParsedCorpus& c) {
    core::ReportInputs inputs;
    inputs.store = &c.store;
    inputs.jobs = &c.jobs;
    inputs.topology = &c.topology;
    inputs.system_label = corpus.system.label;
    inputs.begin = corpus.begin;
    inputs.end = corpus.begin + util::Duration::days(corpus.days);
    return core::markdown_report(inputs);
  };
  const std::string from_text = report_of(parsed);
  const std::string from_snapshot = report_of(loaded);
  ASSERT_FALSE(from_text.empty());
  EXPECT_EQ(from_snapshot, from_text)
      << "snapshot-loaded corpus must be indistinguishable from text ingest";
}

TEST(CorpusSnapshotTest, CorruptFileYieldsErrorAndEmptyCorpus) {
  const auto parsed = parsers::parse_corpus(loggen::build_corpus(small_sim()));
  const ScratchFile file("corpus_corrupt");
  ASSERT_FALSE(parsers::save_snapshot(parsed, file.path()));

  auto bytes = read_file(file.path());
  bytes[bytes.size() - 40] ^= std::byte{0x01};
  write_file(file.path(), bytes);

  const auto loaded = parsers::load_snapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error->kind, SnapshotError::Kind::FileChecksum);
  // Never a partial corpus: the base stays default-constructed.
  EXPECT_EQ(loaded.store.size(), 0u);
  EXPECT_EQ(loaded.jobs.size(), 0u);
  EXPECT_EQ(loaded.parsed_records, 0u);
}

TEST(CorpusSnapshotTest, MissingSectionReportedStructurally) {
  // A container-valid file that is not a corpus snapshot must be rejected
  // by the structural layer, with the missing section named.
  const ScratchFile file("not_a_corpus");
  ASSERT_FALSE(
      util::write_snapshot(file.path(), small_sections({1, 2, 3}, "x")));
  const auto loaded = parsers::load_snapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error->kind, SnapshotError::Kind::MissingSection);
  EXPECT_FALSE(loaded.error->section.empty());
  EXPECT_EQ(loaded.store.size(), 0u);
}

/// The serve-layer face of the same guarantee: a daemon booted from a
/// snapshot must answer every protocol verb byte-identically to one booted
/// from the equivalent text corpus.
TEST(CorpusSnapshotTest, SnapshotBootedDaemonAnswersByteIdenticalToTextBoot) {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S2, 7, 42))
          .run();
  const auto corpus = loggen::build_corpus(sim);
  auto from_text = parsers::parse_corpus(corpus);
  ASSERT_GT(from_text.parsed_records, 0u);
  const std::string node_name = std::string(
      from_text.topology.node_name(from_text.store.nodes().front()));

  const ScratchFile file("serve_boot");
  ASSERT_FALSE(parsers::save_snapshot(from_text, file.path()));
  auto from_snapshot = parsers::load_snapshot(file.path());
  ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.error->to_string();

  serve::Server text_boot(std::move(from_text));
  serve::Server snapshot_boot(std::move(from_snapshot));
  const std::string requests[] = {
      R"({"id":1,"verb":"ping"})",
      R"({"id":2,"verb":"status"})",
      R"({"id":3,"verb":"causes"})",
      R"({"id":4,"verb":"lead_time"})",
      R"({"id":5,"verb":"node_health","params":{"node":")" + node_name + R"("}})",
      R"({"id":6,"verb":"report"})",
      R"({"id":7,"verb":"metrics"})",
  };
  for (const std::string& request : requests) {
    EXPECT_EQ(snapshot_boot.handle_line(request), text_boot.handle_line(request))
        << "boot paths disagree on: " << request;
  }
  EXPECT_EQ(snapshot_boot.boot_alerts().size(), text_boot.boot_alerts().size());
}

// --------------------------------------------------- snapshot fault sites ----

TEST(SnapshotFaultTest, InjectedWriteFailureSurfacesStructuredIoError) {
  const auto parsed = parsers::parse_corpus(loggen::build_corpus(small_sim()));
  const ScratchFile file("fault_write");

  util::FaultInjector inj;
  inj.arm("store.snapshot.write_io", 2);  // mid-file: after the header lands
  {
    const ScopedInjector scope(inj);
    const auto err = parsers::save_snapshot(parsed, file.path());
    ASSERT_TRUE(err);
    EXPECT_EQ(err->kind, SnapshotError::Kind::Io);
    EXPECT_FALSE(err->to_string().empty());
  }
  EXPECT_EQ(inj.fires("store.snapshot.write_io"), 1u);

  // The torn file left behind must never validate.
  const auto loaded = parsers::load_snapshot(file.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.store.size(), 0u);
}

TEST(SnapshotFaultTest, InjectedReadFailureSurfacesStructuredIoError) {
  const auto parsed = parsers::parse_corpus(loggen::build_corpus(small_sim()));
  const ScratchFile file("fault_read");
  ASSERT_FALSE(parsers::save_snapshot(parsed, file.path()));

  util::FaultInjector inj;
  inj.arm("store.snapshot.read_io", 2);  // a section read, not the bulk read
  {
    const ScopedInjector scope(inj);
    const auto loaded = parsers::load_snapshot(file.path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error->kind, SnapshotError::Kind::Io);
    EXPECT_EQ(loaded.store.size(), 0u);
    EXPECT_EQ(loaded.jobs.size(), 0u);
  }
  EXPECT_EQ(inj.fires("store.snapshot.read_io"), 1u);

  // Uninjected, the same file loads clean.
  const auto clean = parsers::load_snapshot(file.path());
  ASSERT_TRUE(clean.ok()) << clean.error->to_string();
  EXPECT_EQ(clean.store.size(), parsed.store.size());
}

}  // namespace
}  // namespace hpcfail
