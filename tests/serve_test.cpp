// Serve-layer battery: golden request/response transcripts for every
// protocol verb (byte-pinned per system, S1..S5), the malformed-request
// matrix (every bad input answers a structured error and the daemon keeps
// serving), the epoch cache contract (repeated queries within an epoch
// never recompute; a tail advance bumps the epoch and recomputes once),
// multi-tail epochs against a batch parse of the same lines, and the
// tail/session mechanics the daemon is built from.
//
// To regenerate the transcripts after an intentional protocol change:
//   HPCFAIL_UPDATE_GOLDENS=1 ./tests/serve_test
// then review the diff like any golden update.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/markdown_report.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/tail.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace hpcfail {
namespace {

std::string golden_dir() {
  // Tests run from the build tree; the fixture lives in the source tree.
  for (const char* candidate :
       {"../testdata/serve_golden", "../../testdata/serve_golden",
        "testdata/serve_golden", "/root/repo/testdata/serve_golden"}) {
    if (std::filesystem::is_directory(candidate)) return candidate;
  }
  return {};
}

/// The last line of a source's raw text that actually parses into a record
/// (console text interleaves chatter the parsers skip) — re-appending it
/// to a tail is guaranteed to produce one record without violating the
/// store's time order.
std::string last_parsable_line(const platform::Topology& topology,
                               const loggen::Corpus& corpus,
                               logmodel::LogSource source) {
  const parsers::LineParseFn parse = parsers::line_parser_for(source);
  logmodel::SymbolTable scratch;
  parsers::ParseContext ctx;
  ctx.topo = &topology;
  ctx.symbols = &scratch;
  const util::CivilTime civil = util::civil_time(corpus.begin);
  ctx.base_year = civil.year;
  ctx.base_month = civil.month;

  const std::string& text = corpus.of(source);
  std::size_t end = text.size();
  while (end > 0) {
    while (end > 0 && text[end - 1] == '\n') --end;
    const std::size_t nl = text.rfind('\n', end == 0 ? 0 : end - 1);
    const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
    std::string line = text.substr(begin, end - begin);
    if (parse != nullptr && parse(line, ctx).has_value()) return line;
    end = begin;
  }
  return {};
}

/// A booted daemon plus the context the tests need alongside it.
struct Booted {
  loggen::Corpus corpus;
  std::string node_name;       ///< a real node name for node_health requests
  std::string tail_line;       ///< console line guaranteed to parse
  std::string controller_line;  ///< controller line guaranteed to parse
  std::size_t base_records = 0;
  util::TimePoint first_time;  ///< boot store extent
  util::TimePoint last_time;
  std::unique_ptr<serve::Server> server;
};

Booted boot(platform::SystemName system, int days, unsigned seed,
            serve::ServerConfig config = {}) {
  Booted out;
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(system, days, seed)).run();
  out.corpus = loggen::build_corpus(sim);
  auto parsed = parsers::parse_corpus(out.corpus);
  out.base_records = parsed.store.size();
  if (!parsed.store.nodes().empty()) {
    out.node_name =
        std::string(parsed.topology.node_name(parsed.store.nodes().front()));
  }
  out.tail_line =
      last_parsable_line(parsed.topology, out.corpus, logmodel::LogSource::Console);
  out.controller_line =
      last_parsable_line(parsed.topology, out.corpus, logmodel::LogSource::Controller);
  out.first_time = parsed.store.first_time();
  out.last_time = parsed.store.last_time();
  out.server = std::make_unique<serve::Server>(std::move(parsed), config);
  return out;
}

/// Scratch file with lifetime-scoped cleanup.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("/tmp/hpcfail_serve_test." + name) {
    std::filesystem::remove(path_);
  }
  ~ScratchFile() { std::filesystem::remove(path_); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  void append(const std::string& text) const {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << text;
  }
  /// Truncates the file in place and writes `text` (copytruncate rotation).
  void truncate_to(const std::string& text) const {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << text;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// `line` (console or controller text, both ISO-timestamp first) moved to
/// time `t`.
std::string retimed(const std::string& line, util::TimePoint t) {
  return util::format_iso(t) + line.substr(line.find(' '));
}

/// Installs a metrics registry for one test and uninstalls it on exit.
class ScopedMetrics {
 public:
  ScopedMetrics() { util::install_metrics(&registry_); }
  ~ScopedMetrics() { util::install_metrics(nullptr); }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

  [[nodiscard]] std::uint64_t counter(const std::string& name) {
    return registry_.counter(name).value();
  }

 private:
  util::MetricsRegistry registry_;
};

/// The `data` object of an ok response.
util::JsonValue data_of(const std::string& response) {
  const auto doc = util::JsonValue::parse(response);
  EXPECT_TRUE(doc.has_value()) << response;
  const util::JsonValue* data = doc.has_value() ? doc->find("data") : nullptr;
  EXPECT_NE(data, nullptr) << response;
  return data != nullptr ? *data : util::JsonValue{};
}

// ------------------------------------------------------- golden transcripts --

/// Transcript format: alternating request line / response line.  The
/// request script covers every verb in the protocol table.
std::vector<std::string> transcript_requests(serve::Server& server,
                                             const std::string& node_name) {
  std::vector<std::string> requests = {
      R"({"id":1,"verb":"ping"})",
      R"({"id":2,"verb":"status"})",
      R"({"id":3,"verb":"causes"})",
      R"({"id":4,"verb":"lead_time"})",
      R"({"id":5,"verb":"node_health","params":{"node":")" + node_name + R"("}})",
      R"({"id":6,"verb":"report"})",
  };
  // Slice the first report section by the name the daemon just listed.
  const std::string listing = server.handle_line(requests.back());
  const auto doc = util::JsonValue::parse(listing);
  std::string section;
  if (doc.has_value()) {
    if (const util::JsonValue* data = doc->find("data")) {
      if (const util::JsonValue* sections = data->find("sections")) {
        if (sections->is_array() && !sections->items().empty() &&
            sections->items().front().is_string()) {
          section = sections->items().front().as_string();
        }
      }
    }
  }
  std::string escaped;
  util::append_json_string(escaped, section);
  requests.push_back(R"({"id":7,"verb":"report","params":{"section":)" + escaped +
                     "}}");
  requests.push_back(R"({"id":8,"verb":"metrics"})");
  requests.push_back(R"({"id":9,"verb":"shutdown"})");
  return requests;
}

class ServeGolden : public ::testing::TestWithParam<platform::SystemName> {};

TEST_P(ServeGolden, TranscriptMatchesGolden) {
  const std::string dir = golden_dir();
  if (dir.empty()) GTEST_SKIP() << "testdata/serve_golden not found";
  Booted booted = boot(GetParam(), 3, 4200);
  const std::string label = booted.corpus.system.label;
  const std::filesystem::path path = std::filesystem::path(dir) / (label + ".txt");

  if (std::getenv("HPCFAIL_UPDATE_GOLDENS") != nullptr) {
    // A fresh daemon, so the transcript-listing probe inside
    // transcript_requests and the recorded responses see the same epoch
    // cache state as a replay does.
    const std::vector<std::string> requests =
        transcript_requests(*booted.server, booted.node_name);
    Booted fresh = boot(GetParam(), 3, 4200);
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const std::string& request : requests) {
      out << request << "\n" << fresh.server->handle_line(request) << "\n";
    }
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " (run with HPCFAIL_UPDATE_GOLDENS=1 to create)";
  std::string request;
  std::string want;
  std::size_t pairs = 0;
  while (std::getline(in, request)) {
    ASSERT_TRUE(std::getline(in, want)) << "transcript has a request with no response";
    EXPECT_EQ(booted.server->handle_line(request), want)
        << label << " response drifted for request: " << request;
    ++pairs;
  }
  EXPECT_EQ(pairs, 9u) << "transcript must cover all nine scripted requests";
  EXPECT_TRUE(booted.server->shutdown_requested()) << "script ends in shutdown";
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ServeGolden,
                         ::testing::Values(platform::SystemName::S1,
                                           platform::SystemName::S2,
                                           platform::SystemName::S3,
                                           platform::SystemName::S4,
                                           platform::SystemName::S5),
                         [](const auto& info) {
                           return platform::system_preset(info.param).label;
                         });

// --------------------------------------------------- malformed requests ----

TEST(ServeProtocolTest, MalformedRequestsAnswerStructuredErrors) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  serve::Server& server = *booted.server;

  const struct {
    std::string request;
    std::string kind;
  } cases[] = {
      {R"({"id":1,"verb":"pi)", "bad_request"},              // truncated JSON
      {"", "bad_request"},                                    // empty line
      {"[1,2,3]", "bad_request"},                             // not an object
      {R"({"verb":"ping"})", "bad_request"},                  // missing id
      {R"({"id":-1,"verb":"ping"})", "bad_request"},          // negative id
      {R"({"id":1.5,"verb":"ping"})", "bad_request"},         // fractional id
      {R"({"id":1})", "bad_request"},                         // missing verb
      {R"({"id":1,"verb":7})", "bad_request"},                // verb not a string
      {R"({"id":1,"verb":"frobnicate"})", "unknown_verb"},    // not in the table
      {R"({"id":1,"verb":"ping","params":7})", "bad_request"},  // params not object
      {R"({"id":1,"verb":"node_health"})", "bad_params"},       // missing node
      {R"({"id":1,"verb":"node_health","params":{"node":"no-such-node"}})",
       "bad_params"},
      {R"({"id":1,"verb":"report","params":{"section":"No Such Section"}})",
       "bad_params"},
      {R"({"id":1,"verb":"ping"}trailing)", "bad_request"},   // trailing garbage
  };
  for (const auto& c : cases) {
    const std::string response = server.handle_line(c.request);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos)
        << "request: " << c.request << " response: " << response;
    EXPECT_NE(response.find("\"kind\":\"" + c.kind + "\""), std::string::npos)
        << "request: " << c.request << " response: " << response;
    const auto doc = util::JsonValue::parse(response);
    ASSERT_TRUE(doc.has_value()) << "error response must itself be valid JSON";
    ASSERT_NE(doc->find("error"), nullptr);
    EXPECT_NE(doc->find("error")->find("message"), nullptr);
  }

  // Oversized line: limit + 1 bytes of valid-looking JSON is still refused.
  std::string big = R"({"id":1,"verb":"ping","params":{"pad":")";
  big.append(serve::kMaxRequestBytes, 'x');
  big += "\"}}";
  const std::string response = server.handle_line(big);
  EXPECT_NE(response.find("\"kind\":\"oversized\""), std::string::npos) << response;

  // The daemon survived all of it: a well-formed request still answers.
  EXPECT_NE(server.handle_line(R"({"id":99,"verb":"ping"})")
                .find("\"data\":{\"pong\":true}"),
            std::string::npos);
  EXPECT_FALSE(server.shutdown_requested());
}

// ------------------------------------------------------------ epoch cache --

TEST(ServeEpochTest, RepeatedQueriesNeverRecomputeWithinAnEpoch) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  serve::Server& server = *booted.server;
  const ScratchFile tail("epoch_tail.log");
  server.attach_tail(tail.path(), logmodel::LogSource::Console);

  EXPECT_EQ(server.analysis_recomputes(), 0u) << "boot must not analyze eagerly";
  const std::string first = server.handle_line(R"({"id":1,"verb":"causes"})");
  EXPECT_EQ(server.analysis_recomputes(), 1u);
  // Same query, same epoch: answered from the cache, byte-identical.
  EXPECT_EQ(server.handle_line(R"({"id":1,"verb":"causes"})"), first);
  // Different analysis-backed verbs share the one computation.
  (void)server.handle_line(R"({"id":2,"verb":"lead_time"})");
  (void)server.handle_line(R"({"id":3,"verb":"report"})");
  EXPECT_EQ(server.analysis_recomputes(), 1u)
      << "lead_time/report within the epoch must reuse the cached analysis";
  EXPECT_NE(first.find("\"epoch\":0"), std::string::npos);

  // An empty poll is not a tail advance: epoch and cache stay put.
  EXPECT_TRUE(server.poll_tail().ok());
  EXPECT_EQ(server.epoch(), 0u);

  // A record-bearing poll advances the epoch; the next analysis-backed
  // query recomputes exactly once against the grown store.
  ASSERT_FALSE(booted.tail_line.empty());
  tail.append(booted.tail_line + "\n");
  const auto poll = server.poll_tail();
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll.records, 1u) << "re-appended corpus line must parse";
  EXPECT_EQ(server.epoch(), 1u);

  const std::string after = server.handle_line(R"({"id":4,"verb":"causes"})");
  EXPECT_EQ(server.analysis_recomputes(), 2u);
  EXPECT_NE(after.find("\"epoch\":1"), std::string::npos);
  const std::string status = server.handle_line(R"({"id":5,"verb":"status"})");
  EXPECT_NE(status.find("\"records\":" + std::to_string(booted.base_records + 1)),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("\"tail_records\":1"), std::string::npos) << status;
}

// ------------------------------------------------------- multi-tail epochs --

TEST(ServeEpochTest, MonitorSeesOnePollInTimeOrderAcrossTails) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  serve::Server& server = *booted.server;
  const ScratchFile console("order_console.log");
  const ScratchFile controller("order_controller.log");
  server.attach_tail(console.path(), logmodel::LogSource::Console);
  server.attach_tail(controller.path(), logmodel::LogSource::Controller);
  ASSERT_FALSE(booted.tail_line.empty());
  ASSERT_FALSE(booted.controller_line.empty());

  // Both lines are newer than all history, but the tail polled second
  // holds the earlier one.
  ScopedMetrics metrics;
  console.append(retimed(booted.tail_line, booted.last_time + util::Duration::seconds(20)) +
                 "\n");
  controller.append(
      retimed(booted.controller_line, booted.last_time + util::Duration::seconds(10)) + "\n");
  const auto poll = server.poll_tail();
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll.records, 2u);
  EXPECT_EQ(metrics.counter("hpcfail.serve.monitor_skipped"), 0u)
      << "a record newer than all history must reach the monitor";
}

/// "## " sections of a markdown report, keyed by heading text.
std::map<std::string, std::string> report_sections(const std::string& report) {
  std::map<std::string, std::string> out;
  std::size_t at = report.find("## ");
  while (at != std::string::npos) {
    const std::size_t next = report.find("\n## ", at);
    const std::size_t end = next == std::string::npos ? report.size() : next + 1;
    const std::size_t eol = report.find('\n', at);
    out[report.substr(at + 3, eol - at - 3)] = report.substr(at, end - at);
    at = next == std::string::npos ? next : next + 1;
  }
  return out;
}

TEST(ServeEpochTest, MultiTailEpochsMatchABatchParse) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  serve::Server& server = *booted.server;
  const ScratchFile console("multi_console.log");
  const ScratchFile controller("multi_controller.log");
  server.attach_tail(console.path(), logmodel::LogSource::Console);
  server.attach_tail(controller.path(), logmodel::LogSource::Controller);
  ASSERT_FALSE(booted.tail_line.empty());
  ASSERT_FALSE(booted.controller_line.empty());

  // Every appended time is distinct from every other record's, so the
  // batch parse and the epochs cannot order ties differently.
  const auto after = [&](int sec) {
    return booted.last_time + util::Duration::seconds(sec) +
           util::Duration::microseconds(250);
  };
  const util::TimePoint inside =
      booted.first_time + (booted.last_time - booted.first_time) / 2 +
      util::Duration::microseconds(125);
  ASSERT_LT(inside, booted.last_time);
  const std::vector<std::vector<std::pair<logmodel::LogSource, std::string>>> polls = {
      {{logmodel::LogSource::Console, retimed(booted.tail_line, after(30))},
       {logmodel::LogSource::Controller, retimed(booted.controller_line, after(10))}},
      // Interleaves history: this epoch takes extend()'s merge branch.
      {{logmodel::LogSource::Console, retimed(booted.tail_line, inside)},
       {logmodel::LogSource::Controller, retimed(booted.controller_line, after(40))}},
      {{logmodel::LogSource::Controller, retimed(booted.controller_line, after(50))},
       {logmodel::LogSource::Console, "not a log line"}},
      {{logmodel::LogSource::Console, retimed(booted.tail_line, after(60))}},
  };

  loggen::Corpus reference = booted.corpus;
  std::size_t appended_records = 0;
  for (const auto& lines : polls) {
    for (const auto& [source, line] : lines) {
      (source == logmodel::LogSource::Console ? console : controller).append(line + "\n");
      reference.of(source) += line + "\n";
    }
    const auto poll = server.poll_tail();
    ASSERT_TRUE(poll.ok());
    EXPECT_EQ(poll.lines, lines.size());
    appended_records += poll.records;
  }
  EXPECT_EQ(appended_records, 6u) << "every line but the chatter parses";
  EXPECT_EQ(server.epoch(), polls.size());

  const parsers::ParsedCorpus batch = parsers::parse_corpus(reference);
  const util::JsonValue status = data_of(server.handle_line(R"({"id":1,"verb":"status"})"));
  ASSERT_NE(status.find("records"), nullptr);
  EXPECT_EQ(status.find("records")->as_number(), static_cast<double>(batch.store.size()));
  EXPECT_EQ(batch.store.size(), booted.base_records + appended_records);

  core::ReportInputs inputs;
  inputs.store = &batch.store;
  inputs.jobs = &batch.jobs;
  inputs.topology = &batch.topology;
  inputs.system_label = batch.system.label;
  inputs.end = batch.store.last_time() + util::Duration::microseconds(1);
  inputs.begin = std::max(batch.store.first_time(), inputs.end - util::Duration::days(30));
  const std::map<std::string, std::string> want = report_sections(core::markdown_report(inputs));
  ASSERT_FALSE(want.empty());

  const util::JsonValue listing = data_of(server.handle_line(R"({"id":2,"verb":"report"})"));
  ASSERT_NE(listing.find("sections"), nullptr);
  std::size_t served = 0;
  for (const util::JsonValue& title : listing.find("sections")->items()) {
    std::string request = R"({"id":3,"verb":"report","params":{"section":)";
    util::append_json_string(request, title.as_string());
    const util::JsonValue section = data_of(server.handle_line(request + "}}"));
    ASSERT_NE(section.find("text"), nullptr);
    ASSERT_EQ(want.count(title.as_string()), 1u) << title.as_string();
    EXPECT_EQ(section.find("text")->as_string(), want.at(title.as_string()))
        << "section \"" << title.as_string() << "\" differs from the batch report";
    ++served;
  }
  EXPECT_EQ(served, want.size());
}

// ------------------------------------------------------------- tail reader --

TEST(TailReaderTest, PartialLinesWaitForTheirNewline) {
  const ScratchFile file("tail_partial.log");
  serve::TailReader reader(file.path());

  // Absent file: empty poll, no error.
  auto poll = reader.poll();
  EXPECT_TRUE(poll.ok());
  EXPECT_TRUE(poll.lines.empty());

  file.append("alpha\nbeta");  // beta is mid-append
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll.lines.size(), 1u);
  EXPECT_EQ(poll.lines[0], "alpha");

  file.append("-still-beta\ngamma\r\n");  // beta completes; gamma is CRLF
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll.lines.size(), 2u);
  EXPECT_EQ(poll.lines[0], "beta-still-beta");
  EXPECT_EQ(poll.lines[1], "gamma");

  poll = reader.poll();  // nothing new
  EXPECT_TRUE(poll.ok());
  EXPECT_TRUE(poll.lines.empty());
  EXPECT_EQ(reader.offset(), std::string("alpha\nbeta-still-beta\ngamma\r\n").size());
}

TEST(TailReaderTest, TruncationRestartsAtTheFirstByte) {
  const ScratchFile file("tail_truncate.log");
  serve::TailReader reader(file.path());
  ScopedMetrics metrics;

  file.append("line-one-aaaaaaaaaaaa\nline-two-bbbbbbbbbbbb\n");
  auto poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll.lines.size(), 2u);
  ASSERT_EQ(reader.offset(), 44u);

  // copytruncate: the file shrinks below the offset, then grows past it.
  file.truncate_to("rotated-1\n");
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll.lines.size(), 1u);
  EXPECT_EQ(poll.lines[0], "rotated-1");
  EXPECT_EQ(metrics.counter("hpcfail.serve.tail_truncations"), 1u);

  file.append("rotated-2-cccccccccccccccccccc\nrotated-3\n");
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll.lines.size(), 2u);
  EXPECT_EQ(poll.lines[0], "rotated-2-cccccccccccccccccccc");
  EXPECT_EQ(poll.lines[1], "rotated-3");
  EXPECT_EQ(metrics.counter("hpcfail.serve.tail_truncations"), 1u);
}

TEST(TailReaderTest, RenameRotationDrainsTheOldFileThenRestarts) {
  const ScratchFile file("tail_rename.log");
  const ScratchFile rotated("tail_rename.log.1");
  serve::TailReader reader(file.path());
  ScopedMetrics metrics;

  file.append("old-1\n");
  auto poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll.lines, std::vector<std::string>{"old-1"});

  // `mv f f.1`: a writer that still has the old file open keeps appending
  // to it.  With nothing at the path the poll is empty.
  std::ofstream writer(file.path(), std::ios::app | std::ios::binary);
  std::filesystem::rename(file.path(), rotated.path());
  writer << "old-2\nold-3-partial" << std::flush;
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  EXPECT_TRUE(poll.lines.empty());

  // `touch f` and new lines, past the old offset by the next poll: the old
  // file's complete lines come first, then the new file from byte 0.
  file.append("new-1-aaaaaaaaaaaaaaaa\nnew-2\n");
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll.lines, (std::vector<std::string>{"old-2", "new-1-aaaaaaaaaaaaaaaa", "new-2"}));
  EXPECT_EQ(reader.offset(), std::string("new-1-aaaaaaaaaaaaaaaa\nnew-2\n").size());
  EXPECT_EQ(metrics.counter("hpcfail.serve.tail_rotations"), 1u);
  EXPECT_EQ(metrics.counter("hpcfail.serve.tail_truncations"), 0u);

  // The reader follows the new file only.
  writer << "\nold-4\n" << std::flush;
  file.append("new-3\n");
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll.lines, std::vector<std::string>{"new-3"});
  EXPECT_EQ(metrics.counter("hpcfail.serve.tail_rotations"), 1u);
}

TEST(TailReaderTest, SchedulerTailsAreRejected) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  EXPECT_THROW(
      booted.server->attach_tail("/tmp/never-read.log", logmodel::LogSource::Scheduler),
      std::invalid_argument);
}

// ---------------------------------------------------------------- sessions --

TEST(ServeSessionTest, SerialSessionAnswersInOrderAndStopsOnShutdown) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  std::ostringstream script;
  const int kRequests = 40;
  for (int i = 1; i <= kRequests; ++i) {
    script << R"({"id":)" << i << R"(,"verb":)"
           << (i % 3 == 0 ? R"("status")" : R"("ping")") << "}\n";
  }
  script << R"({"id":41,"verb":"shutdown"})" << "\n" << R"({"id":42,"verb":"ping"})" << "\n";
  std::istringstream in(script.str());
  std::ostringstream out;
  const std::size_t answered = serve::run_session(*booted.server, in, out);
  EXPECT_EQ(answered, 41u) << "the request after shutdown must not be read";

  std::istringstream responses(out.str());
  std::string line;
  int expected = 1;
  while (std::getline(responses, line)) {
    EXPECT_NE(line.find("\"id\":" + std::to_string(expected) + ","),
              std::string::npos)
        << "out-of-order response at position " << expected << ": " << line;
    ++expected;
  }
  EXPECT_EQ(expected, kRequests + 2);
  EXPECT_NE(out.str().find("\"stopping\":true"), std::string::npos);
}

TEST(ServeSessionTest, ArmedParseFaultTearsTheNthRequest) {
  // Requests are parsed in line order, so hit 2 is always request 2.
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  std::istringstream in(R"({"id":1,"verb":"ping"})" "\n"
                        R"({"id":2,"verb":"ping"})" "\n"
                        R"({"id":3,"verb":"ping"})" "\n");
  std::ostringstream out;
  util::FaultInjector inj;
  inj.arm("serve.request.parse", 2);
  util::install_fault_injector(&inj);
  const std::size_t answered = serve::run_session(*booted.server, in, out);
  util::install_fault_injector(nullptr);
  EXPECT_EQ(answered, 3u);
  EXPECT_EQ(inj.fires("serve.request.parse"), 1u);

  std::istringstream responses(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(responses, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find(R"("id":1,"ok":true)"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find(R"("kind":"bad_request")"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find(R"("id":3,"ok":true)"), std::string::npos) << lines[2];
}

}  // namespace
}  // namespace hpcfail
