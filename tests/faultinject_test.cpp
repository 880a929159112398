// Self-fault-injection sweep: every registered fault site (util/fault.hpp)
// is armed one at a time against the full simulate -> write -> ingest ->
// snapshot save -> snapshot load pipeline, and every run must end in one
// of exactly two ways — a structured error (IngestError / SnapshotError,
// or the writers' fail-loud std::runtime_error) or a record-accurate
// partial result whose metrics account for every line seen.  No crash, no
// hang, no silent truncation.  CI repeats this suite under ASan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <source_location>
#include <stdexcept>
#include <string>

#include "faultsim/scenario_io.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "parsers/ingest.hpp"
#include "parsers/snapshot.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail {
namespace {

using util::FaultInjector;

/// RAII install/uninstall so a failing assertion can't leak an armed
/// injector into the next test.
class ScopedInjector {
 public:
  explicit ScopedInjector(FaultInjector& inj) { util::install_fault_injector(&inj); }
  ~ScopedInjector() { util::install_fault_injector(nullptr); }
  ScopedInjector(const ScopedInjector&) = delete;
  ScopedInjector& operator=(const ScopedInjector&) = delete;
};

loggen::Corpus small_corpus() {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S2, 1, 4242))
          .run();
  return loggen::build_corpus(sim);
}

std::map<std::string, std::uint64_t> counter_map(const util::MetricsRegistry& registry) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : registry.counters()) out[name] = value;
  return out;
}

// ------------------------------------------------------- injector unit ----

TEST(FaultInjectorTest, UnknownSiteThrows) {
  FaultInjector inj;
  EXPECT_THROW(inj.arm("ingest.read.no_such_site"), std::invalid_argument);
  EXPECT_THROW(inj.arm_spec("definitely.not.a.site:1"), std::invalid_argument);
}

TEST(FaultInjectorTest, SpecGrammar) {
  constexpr std::size_t kBadbit = util::fault_site("ingest.read.badbit");
  constexpr std::size_t kAppend = util::fault_site("store.append_batch.bad_alloc");
  const auto here = std::source_location::current();
  FaultInjector inj;
  inj.arm_spec("ingest.read.badbit:3,store.append_batch.bad_alloc");
  EXPECT_FALSE(inj.hit(kBadbit, here));
  EXPECT_FALSE(inj.hit(kBadbit, here));
  EXPECT_TRUE(inj.hit(kBadbit, here));   // third hit fires
  EXPECT_FALSE(inj.hit(kBadbit, here));  // fires exactly once
  EXPECT_TRUE(inj.hit(kAppend, here));   // default n = 1
  EXPECT_EQ(inj.hits("ingest.read.badbit"), 4u);
  EXPECT_EQ(inj.fires("ingest.read.badbit"), 1u);
  EXPECT_EQ(inj.total_fires(), 2u);

  FaultInjector bad;
  EXPECT_THROW(bad.arm_spec(""), std::invalid_argument);
  EXPECT_THROW(bad.arm_spec("ingest.read.badbit:"), std::invalid_argument);
  EXPECT_THROW(bad.arm_spec("ingest.read.badbit:0"), std::invalid_argument);
  EXPECT_THROW(bad.arm_spec("ingest.read.badbit:two"), std::invalid_argument);
  EXPECT_THROW(bad.arm_spec("ingest.read.badbit,,"), std::invalid_argument);
}

TEST(FaultInjectorTest, UnarmedSitesAreFree) {
  FaultInjector inj;
  EXPECT_FALSE(inj.hit(util::fault_site("ingest.read.badbit"), std::source_location::current()));
  EXPECT_EQ(inj.hits("ingest.read.badbit"), 0u);
  EXPECT_EQ(inj.call_points("ingest.read.badbit"), 0u);
  // Nothing installed: sites pass straight through.
  EXPECT_FALSE(HPCFAIL_FAULT_SITE("ingest.read.badbit"));
}

TEST(FaultInjectorTest, HitsFromASecondCallPointAreRecorded) {
  FaultInjector inj;
  inj.arm("ingest.read.badbit", 5);
  const ScopedInjector scope(inj);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(HPCFAIL_FAULT_SITE("ingest.read.badbit"));
  }
  EXPECT_EQ(inj.call_points("ingest.read.badbit"), 1u);
  EXPECT_FALSE(HPCFAIL_FAULT_SITE("ingest.read.badbit"));
  EXPECT_EQ(inj.call_points("ingest.read.badbit"), 2u);
  EXPECT_EQ(inj.hits("ingest.read.badbit"), 3u);
}

// The inventory checker that guards kFaultSites at build time, run on the
// real table and on each kind of drift it must reject.
static_assert(util::valid_fault_inventory(util::kFaultSites));
constexpr std::string_view kDuplicated[] = {"ingest.read.badbit", "ingest.read.badbit"};
static_assert(!util::valid_fault_inventory(kDuplicated));
constexpr std::string_view kUppercase[] = {"ingest.Read.torn"};
static_assert(!util::valid_fault_inventory(kUppercase));
constexpr std::string_view kTwoSegments[] = {"parse.oops"};
static_assert(!util::valid_fault_inventory(kTwoSegments));
constexpr std::string_view kUnsorted[] = {"store.gone.bad_alloc", "ingest.retire.bad_alloc"};
static_assert(!util::valid_fault_inventory(kUnsorted));
constexpr std::string_view kDoubleUnderscore[] = {"ingest.read.bad__bit"};
static_assert(!util::valid_fault_inventory(kDoubleUnderscore));
static_assert(util::fault_site("faultsim.scenario_io.bad_alloc") == 0);
static_assert(util::fault_site("store.symbol_absorb.bad_alloc") ==
              std::size(util::kFaultSites) - 1);

// --------------------------------------------------- targeted regressions ----

/// The EOF-conflation bug class: a stream error mid-corpus must surface as
/// a structured StreamIo error with the byte offset — never parse as a
/// quietly shorter corpus (the pre-PR7 behavior).
TEST(FaultInjectTest, BadbitSurfacesAsStructuredErrorNotTruncation) {
  const loggen::Corpus corpus = small_corpus();
  const auto reference = parsers::parse_corpus(corpus);
  const std::string dir = "/tmp/hpcfail_faultinject_badbit";
  std::filesystem::remove_all(dir);
  loggen::write_corpus(corpus, dir);

  FaultInjector inj;
  inj.arm("ingest.read.badbit", 3);  // mid-file, not the first read
  const ScopedInjector scope(inj);
  parsers::IngestOptions options;
  options.chunk_bytes = 4096;  // many reads per file, so hit 3 is mid-stream
  const auto result = parsers::ingest_files(dir, options);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error->kind, parsers::IngestErrorKind::StreamIo);
  EXPECT_GT(result.error->byte_offset, 0u);
  EXPECT_NE(result.error->message.find("not EOF"), std::string::npos);
  EXPECT_NE(result.error->file.find(".log"), std::string::npos);
  EXPECT_NE(result.error->to_string().find("stream-io"), std::string::npos);
  // The partial result is smaller than the full parse, and says so.
  EXPECT_LT(result.parsed_records, reference.parsed_records);
  EXPECT_EQ(result.parsed_records + result.skipped_lines, result.total_lines);
  EXPECT_EQ(inj.fires("ingest.read.badbit"), 1u);
  std::filesystem::remove_all(dir);
}

TEST(FaultInjectTest, MissingSourceFilesAreSkippedAndCounted) {
  const loggen::Corpus corpus = small_corpus();
  const std::string dir = "/tmp/hpcfail_faultinject_missing";
  std::filesystem::remove_all(dir);
  loggen::write_corpus(corpus, dir);
  // The S2 corpus has no consumer log, so one source file is already
  // legitimately absent; deleting the console log adds a second.
  ASSERT_TRUE(std::filesystem::remove(std::filesystem::path(dir) / "p0-console.log"));

  util::MetricsRegistry registry;
  util::install_metrics(&registry);
  {
    util::ThreadPool pool(2);
    parsers::IngestOptions options;
    options.pool = &pool;
    const auto skipped = parsers::ingest_files(dir, options);
    EXPECT_TRUE(skipped.ok());  // skipped, but not invisible:
    EXPECT_EQ(counter_map(registry)["hpcfail.ingest.files_missing"], 2u);
    EXPECT_GT(skipped.parsed_records, 0u);
  }
  util::install_metrics(nullptr);
  std::filesystem::remove_all(dir);
}

/// The scheduler log rides the chunk pipeline, so the parse and retire
/// sites reach its chunks too.  A fault there must end in a structured
/// Resource error naming the scheduler, and the partial job table must
/// never hold a job whose JobStart record the partial store lacks.
TEST(FaultInjectTest, SchedulerChunkFaultsLeaveConsistentPartials) {
  const loggen::Corpus corpus = small_corpus();
  const std::string dir = "/tmp/hpcfail_faultinject_scheduler";
  std::filesystem::remove_all(dir);
  loggen::write_corpus(corpus, dir);
  for (std::size_t i = 0; i < logmodel::kLogSourceCount; ++i) {
    const auto source = static_cast<logmodel::LogSource>(i);
    if (source == logmodel::LogSource::Scheduler) continue;
    std::filesystem::remove(std::filesystem::path(dir) / loggen::source_file_name(source));
  }

  for (const char* site : {"ingest.parse.bad_alloc", "store.append_batch.bad_alloc"}) {
    SCOPED_TRACE(site);
    FaultInjector inj;
    inj.arm(site, 2);  // the second scheduler chunk
    parsers::IngestResult result;
    {
      // One worker runs the parse tasks in chunk order, so hit 2 is
      // always the second chunk and the first one always retires.
      util::ThreadPool pool(1);
      const ScopedInjector scope(inj);
      parsers::IngestOptions options;
      options.chunk_bytes = 4096;
      options.pool = &pool;
      result = parsers::ingest_files(dir, options);
    }
    EXPECT_EQ(inj.fires(site), 1u);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error->kind, parsers::IngestErrorKind::Resource);
    EXPECT_EQ(result.error->source, logmodel::LogSource::Scheduler);
    EXPECT_EQ(result.total_lines, result.parsed_records + result.skipped_lines);

    std::set<std::int64_t> started;
    for (const logmodel::LogRecord& r : result.store.records()) {
      if (r.type == logmodel::EventType::JobStart) started.insert(r.job_id);
    }
    EXPECT_GT(result.jobs.size(), 0u);  // the first chunk retired
    for (const jobs::JobRow& job : result.jobs.rows()) {
      EXPECT_TRUE(started.contains(job.job_id)) << "job " << job.job_id;
    }
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------- the sweep ----

/// One full pipeline pass under an armed site: scenario serialization,
/// corpus write, chunked ingest.  Returns via gtest assertions only.
void run_armed_pipeline(const std::string& site) {
  SCOPED_TRACE("armed site: " + site);
  const auto config = faultsim::scenario_preset(platform::SystemName::S2, 1, 4242);
  const loggen::Corpus corpus = small_corpus();
  const auto reference = parsers::parse_corpus(corpus);
  const std::string dir = "/tmp/hpcfail_faultinject_sweep";
  std::filesystem::remove_all(dir);

  FaultInjector inj;
  inj.arm(site, 2);  // not the first hit: mid-run faults are the hard case
  util::MetricsRegistry registry;
  util::install_metrics(&registry);
  const ScopedInjector scope(inj);

  // Stage 1+2: the writers (scenario serialization, corpus files).  Either
  // they succeed or they fail loud; a thrown writer error ends this site's
  // sweep entry — there is nothing to ingest.
  bool wrote = false;
  try {
    (void)faultsim::scenario_to_string(config);
    (void)faultsim::scenario_to_string(config);  // second hit for n=2 schedules
    loggen::write_corpus(corpus, dir);
    wrote = true;
  } catch (const std::bad_alloc&) {
    // structured enough: allocation fault escaped before any file existed
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("write_corpus"), std::string::npos)
        << "writer failure must name the writer, got: " << e.what();
  }

  if (wrote) {
    // Stage 3: chunked ingest with small chunks so mid-corpus sites hit
    // several times per file, on a 2-thread pool.
    parsers::IngestOptions options;
    options.chunk_bytes = 4096;
    parsers::IngestResult result;
    {
      util::ThreadPool pool(2);
      options.pool = &pool;
      result = parsers::ingest_files(dir, options);
    }

    if (result.ok()) {
      // Graceful degradation: a record-accurate partial (or full) result.
      // Every line seen is either a record or an accounted skip, and the
      // counters agree with the in-memory totals.
      EXPECT_EQ(result.parsed_records + result.skipped_lines, result.total_lines);
      EXPECT_EQ(result.parsed_records, result.store.size());
      EXPECT_LE(result.parsed_records, reference.parsed_records);
      const auto counters = counter_map(registry);
      EXPECT_EQ(counters.at("hpcfail.ingest.records_parsed"), result.parsed_records);
      EXPECT_EQ(counters.at("hpcfail.ingest.lines_skipped"), result.skipped_lines);
      if (inj.total_fires() > 0 && site.rfind("ingest.", 0) == 0) {
        EXPECT_GE(counters.at("hpcfail.ingest.faults_injected"), 1u);
      }

      // Stage 4+5: snapshot save -> load of the clean parse.  Each snapshot
      // site is hit once per header/section transfer, so the n=2 schedule
      // lands mid-file; the outcome must be binary — a loaded corpus equal
      // to the ingested one, or a structured SnapshotError and nothing.
      const std::string snap = dir + "/sweep.snap";
      if (const auto save_err = parsers::save_snapshot(result, snap)) {
        EXPECT_EQ(save_err->kind, util::SnapshotError::Kind::Io)
            << save_err->to_string();
        // A torn write must never leave a file that validates.
        EXPECT_FALSE(parsers::load_snapshot(snap).ok());
      } else {
        const auto loaded = parsers::load_snapshot(snap);
        if (loaded.ok()) {
          EXPECT_EQ(loaded.store.size(), result.store.size());
          EXPECT_EQ(loaded.jobs.size(), result.jobs.size());
          EXPECT_EQ(loaded.total_lines, result.total_lines);
        } else {
          EXPECT_EQ(loaded.error->kind, util::SnapshotError::Kind::Io)
              << loaded.error->to_string();
          // Never a partial corpus on a failed load.
          EXPECT_EQ(loaded.store.size(), 0u);
          EXPECT_EQ(loaded.jobs.size(), 0u);
        }
      }

      // Stage 6: the serve layer.  Boot a daemon over the ingested corpus,
      // advance its tail twice and answer three requests, so both serve
      // sites see >= 2 hits per pass (tail.read_io hits once per
      // data-bearing poll, request.parse once per request).  A fired site
      // must surface as a structured TailError / error response — the
      // daemon itself always survives.
      const std::string tail_path = dir + "/serve-tail.log";
      serve::Server server(std::move(result));
      server.attach_tail(tail_path, logmodel::LogSource::Console);

      const auto append_and_poll = [&](std::string_view text) {
        {
          std::ofstream tail(tail_path, std::ios::app);
          tail << text << "\n";
        }
        const auto poll = server.poll_tail();
        if (!poll.ok()) {
          EXPECT_FALSE(poll.error->message.empty());
          EXPECT_EQ(poll.error->file, tail_path);
          EXPECT_NE(poll.error->to_string().find(tail_path), std::string::npos);
          // The offset did not advance: the retry poll drains the backlog.
          EXPECT_TRUE(server.poll_tail().ok());
        }
      };
      append_and_poll("tail line one (not a parsable console record)");
      append_and_poll("tail line two (not a parsable console record)");

      for (const std::string_view request :
           {std::string_view(R"({"id":1,"verb":"ping"})"),
            std::string_view(R"({"id":2,"verb":"status"})"),
            std::string_view(R"({"id":3,"verb":"ping"})")}) {
        const std::string response = server.handle_line(request);
        ASSERT_FALSE(response.empty());
        EXPECT_EQ(response.front(), '{');
        EXPECT_NE(response.find("\"id\":"), std::string::npos)
            << "response must echo an id, got: " << response;
      }
      EXPECT_FALSE(server.shutdown_requested());
    } else {
      // Structured failure: kind + message + source set, and the partial
      // store still accounts for exactly what was retired.
      EXPECT_FALSE(result.error->message.empty());
      EXPECT_EQ(result.parsed_records + result.skipped_lines, result.total_lines);
      EXPECT_EQ(result.parsed_records, result.store.size());
    }
  }

  util::install_metrics(nullptr);
  // The site must actually have fired: a sweep that never reaches its
  // sites proves nothing.  Every site in the inventory is hit at least
  // twice per pipeline pass, so the nth=2 schedule always lands.
  EXPECT_EQ(inj.fires(site), 1u)
      << "site " << site << " never fired (hits=" << inj.hits(site) << ")";
  // One name, one call point: a second HPCFAIL_FAULT_SITE with the same
  // name would make the schedule count hits from two places.
  EXPECT_EQ(inj.call_points(site), 1u)
      << "site " << site << " must be hit from exactly one call point";
  std::filesystem::remove_all(dir);
}

class FaultSiteSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultSiteSweep, DegradesGracefullyOrFailsStructured) {
  run_armed_pipeline(GetParam());
}

std::vector<std::string> all_sites() {
  std::vector<std::string> out;
  for (const auto site : util::kFaultSites) out.emplace_back(site);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllSites, FaultSiteSweep, ::testing::ValuesIn(all_sites()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hpcfail
