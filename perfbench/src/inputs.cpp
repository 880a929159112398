#include "inputs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "parsers/snapshot.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using hpcfail::logmodel::LogSource;
using hpcfail::platform::SystemName;
namespace loggen = hpcfail::loggen;
namespace parsers = hpcfail::parsers;
namespace util = hpcfail::util;

std::vector<CorpusSpec> postmortem_corpora(bool tiny) {
  if (tiny) return {{SystemName::S1, 1}, {SystemName::S5, 1}};
  return {{SystemName::S2, 28}, {SystemName::S5, 28}};
}

std::vector<CorpusSpec> reproduce_presets(bool tiny) {
  const int days = tiny ? 1 : 7;
  return {{SystemName::S1, days},
          {SystemName::S2, days},
          {SystemName::S3, days},
          {SystemName::S4, days},
          {SystemName::S5, days}};
}

ServeSpec serve_spec(bool tiny) {
  if (tiny) return {{SystemName::S1, 2}, 1, kServeScenarioSeed};
  return {{SystemName::S2, 29}, 28, kServeScenarioSeed};
}

std::string corpus_name(const CorpusSpec& spec) {
  return std::string(hpcfail::platform::to_string(spec.system)) + "-" +
         std::to_string(spec.days) + "d";
}

std::string corpus_dir(const Options& opt, std::size_t index) {
  return opt.dir + "/corpus" + std::to_string(index);
}
std::string boot_dir(const Options& opt) { return opt.dir + "/boot"; }
std::string boot_snapshot(const Options& opt) { return opt.dir + "/boot.snap"; }
std::string tail_file(const Options& opt, LogSource source) {
  return opt.dir + "/tail-" + std::string(loggen::source_file_name(source));
}

namespace {

std::string expected_path(const Options& opt) { return opt.dir + "/expected.txt"; }
std::string tail_lines_path(const Options& opt) { return opt.dir + "/tail.lines"; }

hpcfail::faultsim::SimulationResult simulate(const CorpusSpec& spec, std::uint64_t seed) {
  return hpcfail::faultsim::Simulator(
             hpcfail::faultsim::scenario_preset(spec.system, spec.days, seed))
      .run();
}

void write_expected(const Options& opt,
                    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::ofstream out(expected_path(opt));
  for (const auto& [name, value] : rows) out << name << ' ' << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + expected_path(opt));
}

/// Time stamp at the head of a rendered log line, in whichever of the
/// corpus formats the line uses.
std::optional<util::TimePoint> line_time(std::string_view line, int base_year,
                                         int base_month) {
  if (line.size() >= 19 && line[4] == '-') {
    if (line[10] == 'T') return util::parse_iso(line.substr(0, line.find(' ')));
    return util::parse_sql(line.substr(0, 19));
  }
  if (line.size() >= 19 && line[2] == '/') return util::parse_torque(line.substr(0, 19));
  if (line.size() >= 15) return util::parse_syslog(line.substr(0, 15), base_year, base_month);
  return std::nullopt;
}

/// Offset of the first line stamped at or after `cut` (lines are
/// time-ordered; an unstamped line follows its predecessor).
std::size_t cut_offset(const std::string& text, util::TimePoint cut, int base_year,
                       int base_month) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t next = eol == std::string::npos ? text.size() : eol + 1;
    const auto t = line_time(std::string_view(text).substr(pos, next - pos), base_year,
                             base_month);
    if (t && *t >= cut) return pos;
    pos = next;
  }
  return text.size();
}

std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? text.size() : eol;
    out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

void prepare_postmortem(const Options& opt) {
  util::ThreadPool pool;
  std::vector<std::pair<std::string, std::string>> expected;
  const auto specs = postmortem_corpora(opt.tiny);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const loggen::Corpus corpus = loggen::build_corpus(simulate(specs[i], opt.seed));
    loggen::write_corpus(corpus, corpus_dir(opt, i));
    // Reference: the in-memory parse path over the same corpus.
    expected.emplace_back(corpus_name(specs[i]),
                          digest(report_of(parsers::parse_corpus(corpus, &pool))));
  }
  write_expected(opt, expected);
}

void prepare_reproduce(const Options& opt) {
  util::ThreadPool pool;
  std::vector<std::pair<std::string, std::string>> expected;
  for (const CorpusSpec& spec : reproduce_presets(opt.tiny)) {
    // Reference: the streaming file-ingest path over the same corpus.
    const std::string dir = opt.dir + "/reference";
    loggen::write_corpus(loggen::build_corpus(simulate(spec, opt.seed)), dir);
    parsers::IngestOptions options;
    options.pool = &pool;
    const parsers::IngestResult parsed = parsers::ingest_files(dir, options);
    if (!parsed.ok()) throw std::runtime_error(parsed.error->to_string());
    expected.emplace_back(corpus_name(spec), digest(report_of(parsed)));
    fs::remove_all(dir);
  }
  write_expected(opt, expected);
}

/// live_tail / dashboard: the boot corpus (every source cut at boot_days),
/// its snapshot, and the console + controller lines past the cut in
/// time order (the tail replay).
void prepare_serve(const Options& opt) {
  const ServeSpec spec = serve_spec(opt.tiny);
  loggen::Corpus full = loggen::build_corpus(simulate(spec.corpus, spec.scenario_seed));
  const util::CivilTime civil = util::civil_time(full.begin);
  const util::TimePoint cut = full.begin + util::Duration::days(spec.boot_days);

  loggen::Corpus boot = full;
  boot.days = spec.boot_days;
  std::vector<std::pair<util::TimePoint, TailLine>> tail;
  for (std::size_t s = 0; s < hpcfail::logmodel::kLogSourceCount; ++s) {
    const auto source = static_cast<LogSource>(s);
    const std::string& text = full.of(source);
    const std::size_t at = cut_offset(text, cut, civil.year, civil.month);
    boot.of(source) = text.substr(0, at);
    if (source != LogSource::Console && source != LogSource::Controller) continue;
    for (const std::string_view line : lines_of(std::string_view(text).substr(at))) {
      const auto t = line_time(line, civil.year, civil.month);
      tail.emplace_back(t.value_or(tail.empty() ? cut : tail.back().first),
                        TailLine{source, std::string(line)});
    }
  }
  std::stable_sort(tail.begin(), tail.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  loggen::write_corpus(boot, boot_dir(opt));
  util::ThreadPool pool;
  const parsers::ParsedCorpus parsed = parsers::parse_corpus(boot, &pool);
  if (const auto err = parsers::save_snapshot(parsed, boot_snapshot(opt))) {
    throw std::runtime_error(err->to_string());
  }
  // The replay is every stride-th line of the last day, so each run sees
  // the whole day's mix of chatter, warnings and bursts whatever its
  // length; the workload seed picks which line of each stride.
  const auto needed = static_cast<std::size_t>(opt.seconds * kTailLinesPerSecond) + 1;
  const std::size_t stride = std::max<std::size_t>(1, tail.size() / needed);
  std::ofstream out(tail_lines_path(opt));
  for (std::size_t i = opt.seed % stride; i < tail.size(); i += stride) {
    const TailLine& line = tail[i].second;
    out << (line.source == LogSource::Console ? 'C' : 'K') << '\t' << line.text << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + tail_lines_path(opt));
}

}  // namespace

void prepare(const Options& opt) {
  fs::create_directories(opt.dir);
  if (opt.workload == "postmortem") {
    prepare_postmortem(opt);
  } else if (opt.workload == "reproduce") {
    prepare_reproduce(opt);
  } else if (opt.workload == "live_tail" || opt.workload == "dashboard") {
    prepare_serve(opt);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
}

std::map<std::string, std::string> read_expected(const Options& opt) {
  std::ifstream in(expected_path(opt));
  if (!in) throw std::runtime_error("missing " + expected_path(opt) + " (run prepare)");
  std::map<std::string, std::string> out;
  std::string name;
  std::string value;
  while (in >> name >> value) out[name] = value;
  return out;
}

std::vector<TailLine> read_tail_lines(const Options& opt) {
  std::ifstream in(tail_lines_path(opt));
  if (!in) throw std::runtime_error("missing " + tail_lines_path(opt) + " (run prepare)");
  std::vector<TailLine> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    out.push_back({line[0] == 'C' ? LogSource::Console : LogSource::Controller, line.substr(2)});
  }
  return out;
}

std::string report_of(const parsers::ParsedCorpus& corpus) {
  hpcfail::core::ReportInputs inputs;
  inputs.store = &corpus.store;
  inputs.jobs = &corpus.jobs;
  inputs.topology = &corpus.topology;
  inputs.system_label = corpus.system.label;
  if (corpus.store.size() == 0) {
    inputs.begin = inputs.end = corpus.begin;
  } else {
    inputs.end = corpus.store.last_time() + util::Duration::microseconds(1);
    inputs.begin = std::max(corpus.store.first_time(), inputs.end - util::Duration::days(30));
  }
  return hpcfail::core::markdown_report(inputs);
}

std::uint64_t corpus_log_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < hpcfail::logmodel::kLogSourceCount; ++s) {
    std::error_code ec;
    const auto size = fs::file_size(
        fs::path(dir) / loggen::source_file_name(static_cast<LogSource>(s)), ec);
    if (!ec) total += size;
  }
  return total;
}

}  // namespace perfbench
