// Streaming-ingestion suite.  There is one parse path, ingest_stream; the
// reference is that path over in-memory streams (parse_corpus), and the
// file-backed streams of ingest_files must match it byte for byte — same
// records in the same order, same job table, same line accounting — for
// every system preset, any chunk geometry (down to one-byte chunks), any
// source order, and truncated or unterminated files.  A snapshot of the
// result, symbol ids included, is byte-identical for any pool size and
// chunk size.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "parsers/ingest.hpp"
#include "parsers/snapshot.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail {
namespace {

using logmodel::LogRecord;
using logmodel::LogSource;

void expect_records_equal(const logmodel::LogStore& want,
                          const logmodel::LogStore& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const LogRecord& a = want[i];
    const LogRecord& b = got[i];
    ASSERT_EQ(a.time.usec, b.time.usec) << "record " << i;
    ASSERT_EQ(a.source, b.source) << "record " << i;
    ASSERT_EQ(a.type, b.type) << "record " << i;
    ASSERT_EQ(a.severity, b.severity) << "record " << i;
    ASSERT_EQ(a.node, b.node) << "record " << i;
    ASSERT_EQ(a.blade, b.blade) << "record " << i;
    ASSERT_EQ(a.cabinet, b.cabinet) << "record " << i;
    ASSERT_EQ(a.job_id, b.job_id) << "record " << i;
    ASSERT_EQ(a.value, b.value) << "record " << i;
    // Symbol ids are an interning detail; the resolved text is the contract.
    ASSERT_EQ(want.detail(i), got.detail(i)) << "record " << i;
  }
}

/// Job tables match when their snapshot sections hold the same bytes:
/// rows, string-pool ids and texts, node lists and the node index.
void expect_jobs_equal(const jobs::JobTable& want, const jobs::JobTable& got) {
  ASSERT_EQ(want.size(), got.size());
  util::Sections a;
  util::Sections b;
  want.append_sections(a, "jobs");
  got.append_sections(b, "jobs");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.entries()[i];
    const auto& y = b.entries()[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_TRUE(std::ranges::equal(x.bytes, y.bytes)) << x.name << " differs";
  }
}

void expect_equivalent(const parsers::ParsedCorpus& want,
                       const parsers::ParsedCorpus& got) {
  EXPECT_EQ(want.system.label, got.system.label);
  EXPECT_EQ(want.topology.node_count(), got.topology.node_count());
  EXPECT_EQ(want.total_lines, got.total_lines);
  EXPECT_EQ(want.parsed_records, got.parsed_records);
  EXPECT_EQ(want.skipped_lines, got.skipped_lines);
  expect_records_equal(want.store, got.store);
  expect_jobs_equal(want.jobs, got.jobs);
}

/// Writes `corpus` into a fresh directory under /tmp and returns the path.
std::string write_to_temp(const loggen::Corpus& corpus, const char* tag) {
  const std::string dir = std::string("/tmp/hpcfail_ingest_test_") + tag;
  std::filesystem::remove_all(dir);
  loggen::write_corpus(corpus, dir);
  return dir;
}

struct IngestCase {
  platform::SystemName system;
  std::uint64_t seed;
  const char* tag;
};

class FileVsMemoryStream : public ::testing::TestWithParam<IngestCase> {
 protected:
  void SetUp() override {
    const auto sim =
        faultsim::Simulator(faultsim::scenario_preset(GetParam().system, 2, GetParam().seed))
            .run();
    corpus_ = loggen::build_corpus(sim);
    reference_ = std::make_unique<parsers::ParsedCorpus>(parsers::parse_corpus(corpus_));
  }

  void TearDown() override {
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  loggen::Corpus corpus_;
  std::unique_ptr<parsers::ParsedCorpus> reference_;
  std::string dir_;
};

TEST_P(FileVsMemoryStream, FilesMatchInMemoryParse) {
  dir_ = write_to_temp(corpus_, GetParam().tag);
  const auto streamed = parsers::ingest_files(dir_);
  ASSERT_GT(streamed.parsed_records, 0u);
  expect_equivalent(*reference_, streamed);
}

TEST_P(FileVsMemoryStream, TinyChunksMatch) {
  // Pathological geometry: 57-byte chunks make most lines span chunks and
  // force maximal splitting and merging, with 2 and 8 chunks in flight.
  dir_ = write_to_temp(corpus_, GetParam().tag);
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool pool(threads);
    parsers::IngestOptions options;
    options.chunk_bytes = 57;
    options.pool = &pool;
    expect_equivalent(*reference_, parsers::ingest_files(dir_, options));
  }
}

TEST_P(FileVsMemoryStream, StreamEntryMatchesWithShuffledSourceOrder) {
  // ingest_stream must parse in canonical source order no matter how the
  // caller ordered the vector.
  std::array<std::istringstream, logmodel::kLogSourceCount> streams;
  std::vector<parsers::SourceStream> sources;
  for (std::size_t i = logmodel::kLogSourceCount; i-- > 0;) {
    streams[i].str(corpus_.text[i]);
    sources.push_back({static_cast<LogSource>(i), &streams[i]});
  }
  expect_equivalent(*reference_, parsers::ingest_stream(corpus_, sources));
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST_P(FileVsMemoryStream, SnapshotBytesIgnoreThreadsAndChunking) {
  // The cases above compare resolved text; a snapshot also pins the symbol
  // ids and the job rows.  Chunks intern into chunk-local tables that merge
  // as they retire, in file order, so neither the pool size nor the chunk
  // geometry may move a byte (S1 logs the Slurm dialect, S2 Torque).  The
  // third run parses the same corpus in memory, as `hpcfail store save
  // --preset` does, and must save the same bytes as the file runs.
  dir_ = write_to_temp(corpus_, GetParam().tag);
  std::array<std::string, 3> bytes;
  for (std::size_t run = 0; run < bytes.size(); ++run) {
    util::ThreadPool pool(run == 0 ? 1 : 4);
    parsers::IngestOptions options;
    options.pool = &pool;
    if (run == 1) options.chunk_bytes = 777;
    const auto parsed = run == 2 ? parsers::ingest_corpus(corpus_, options)
                                 : parsers::ingest_files(dir_, options);
    ASSERT_TRUE(parsed.ok()) << parsed.error->to_string();
    ASSERT_GT(parsed.jobs.size(), 0u);
    const std::string snap = dir_ + "/run" + std::to_string(run) + ".snap";
    const auto error = parsers::save_snapshot(parsed, snap);
    ASSERT_FALSE(error.has_value()) << error->to_string();
    bytes[run] = file_bytes(snap);
  }
  EXPECT_FALSE(bytes[0].empty());
  EXPECT_TRUE(bytes[0] == bytes[1]) << "snapshots differ";  // no multi-MB diff dump
  EXPECT_TRUE(bytes[0] == bytes[2]) << "in-memory snapshot differs";
}

INSTANTIATE_TEST_SUITE_P(
    Presets, FileVsMemoryStream,
    ::testing::Values(IngestCase{platform::SystemName::S1, 7001, "s1"},
                      IngestCase{platform::SystemName::S2, 7002, "s2"},
                      IngestCase{platform::SystemName::S5, 7005, "s5"}),
    [](const auto& info) { return info.param.tag; });

// ------------------------------------------------------------ edges ----

loggen::Corpus small_corpus() {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S2, 1, 99)).run();
  return loggen::build_corpus(sim);
}

TEST(IngestEdgeTest, MissingManifestThrows) {
  EXPECT_THROW(parsers::ingest_files("/tmp/hpcfail_no_such_dir_ingest"),
               std::runtime_error);
}

TEST(IngestEdgeTest, ManifestOnlyDirectoryYieldsEmptyStore) {
  loggen::Corpus corpus = small_corpus();
  for (auto& text : corpus.text) text.clear();  // write_corpus skips empty files
  const std::string dir = write_to_temp(corpus, "manifest_only");
  const auto streamed = parsers::ingest_files(dir);
  EXPECT_EQ(streamed.total_lines, 0u);
  EXPECT_EQ(streamed.parsed_records, 0u);
  EXPECT_EQ(streamed.store.size(), 0u);
  EXPECT_EQ(streamed.jobs.size(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(IngestEdgeTest, NoTrailingNewlineParsesLastLine) {
  loggen::Corpus corpus = small_corpus();
  auto& console = corpus.of(logmodel::LogSource::Console);
  ASSERT_FALSE(console.empty());
  console.pop_back();  // drop the final '\n'
  const auto reference = parsers::parse_corpus(corpus);
  const std::string dir = write_to_temp(corpus, "no_trailing_nl");
  expect_equivalent(reference, parsers::ingest_files(dir));
  std::filesystem::remove_all(dir);
}

TEST(IngestEdgeTest, TruncatedFileMatchesTruncatedText) {
  // A file chopped mid-line (e.g. copied while being written) must degrade
  // exactly like the in-memory parse of the same truncated text: complete
  // lines parse, the partial tail line is skipped, nothing crashes.
  loggen::Corpus corpus = small_corpus();
  auto& console = corpus.of(logmodel::LogSource::Console);
  ASSERT_GT(console.size(), 100u);
  console.resize(console.size() - 37);  // mid-line with high probability
  const auto reference = parsers::parse_corpus(corpus);
  const std::string dir = write_to_temp(corpus, "truncated");
  expect_equivalent(reference, parsers::ingest_files(dir));
  std::filesystem::remove_all(dir);
}

TEST(IngestEdgeTest, EmptySourceFileIsSkipped) {
  loggen::Corpus corpus = small_corpus();
  corpus.of(logmodel::LogSource::Erd).clear();
  const std::string dir = write_to_temp(corpus, "empty_file");
  // Zero-byte file alongside real ones: opens fine, yields no lines.
  std::ofstream(std::filesystem::path(dir) / "erd.log", std::ios::binary).close();
  const auto reference = parsers::parse_corpus(corpus);
  expect_equivalent(reference, parsers::ingest_files(dir));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------- observability ----

/// Seeded sweep over 32 log-uniform chunk sizes in [1, 1 MiB] and pools
/// of 1 to 4 threads (2 to 8 chunks in flight): every geometry must
/// reproduce the in-memory parse record for record, and the
/// ingest counters must account for the corpus exactly — bytes_read equals
/// the total size of the ingested .log files (ChunkedLineReader passes
/// bytes through untouched), records_parsed/lines_skipped equal the parse
/// totals.
TEST(IngestObservability, RandomChunkSizeSweepPreservesRecordsAndCounters) {
  const loggen::Corpus corpus = small_corpus();
  const auto reference = parsers::parse_corpus(corpus);
  const std::string dir = write_to_temp(corpus, "chunk_sweep");

  std::uintmax_t corpus_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") corpus_bytes += entry.file_size();
  }
  ASSERT_GT(corpus_bytes, 0u);

  util::Rng rng(20260807);
  for (int i = 0; i < 32; ++i) {
    const auto exponent = rng.uniform_int(0, 20);
    const auto hi = std::int64_t{1} << exponent;
    const auto lo = std::max<std::int64_t>(1, hi / 2);
    parsers::IngestOptions options;
    options.chunk_bytes = static_cast<std::size_t>(rng.uniform_int(lo, hi));
    const auto threads = static_cast<std::size_t>(rng.uniform_int(1, 4));
    SCOPED_TRACE("sweep " + std::to_string(i) + ": chunk_bytes=" +
                 std::to_string(options.chunk_bytes) + " threads=" + std::to_string(threads));

    // A dedicated pool scoped inside the registry's lifetime: its
    // destructor joins the workers, so every instrumented task epilogue
    // lands before the registry is uninstalled and destroyed (the
    // install_metrics contract).  A fresh registry per iteration also
    // exercises the pool's rebind across metrics generations.
    util::MetricsRegistry registry;
    util::install_metrics(&registry);
    parsers::ParsedCorpus streamed;
    {
      util::ThreadPool pool(threads);
      options.pool = &pool;
      streamed = parsers::ingest_files(dir, options);
    }
    util::install_metrics(nullptr);

    expect_equivalent(reference, streamed);

    std::map<std::string, std::uint64_t> counters;
    for (const auto& [name, value] : registry.counters()) counters[name] = value;
    EXPECT_EQ(counters["hpcfail.ingest.bytes_read"], corpus_bytes);
    EXPECT_EQ(counters["hpcfail.ingest.records_parsed"], reference.parsed_records);
    EXPECT_EQ(counters["hpcfail.ingest.lines_skipped"], reference.skipped_lines);
    EXPECT_GE(counters["hpcfail.ingest.chunks"],
              std::uint64_t{1} + (corpus_bytes - 1) / (options.chunk_bytes + 4096));
  }
  std::filesystem::remove_all(dir);
}

TEST(IngestEdgeTest, ParseCorpusThrowsOnAllocationFailure) {
  // parse_corpus has no error field, so an ingest error must throw rather
  // than hand back a silently partial corpus.
  const loggen::Corpus corpus = small_corpus();
  util::FaultInjector injector;
  injector.arm("ingest.parse.bad_alloc");
  util::install_fault_injector(&injector);
  EXPECT_THROW((void)parsers::parse_corpus(corpus), std::bad_alloc);
  util::install_fault_injector(nullptr);
  EXPECT_EQ(injector.fires("ingest.parse.bad_alloc"), 1u);
}

TEST(IngestEdgeTest, SerialPoolMatchesSharedPool) {
  const loggen::Corpus corpus = small_corpus();
  const auto reference = parsers::parse_corpus(corpus);
  const std::string dir = write_to_temp(corpus, "serial_pool");
  util::ThreadPool serial(1);
  parsers::IngestOptions options;
  options.pool = &serial;
  expect_equivalent(reference, parsers::ingest_files(dir, options));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hpcfail
