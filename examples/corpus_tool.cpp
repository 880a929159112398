// corpus_tool: the command-line face of the library.
//
//   corpus_tool generate --system S1 --days 7 --seed 42 --out DIR
//       Simulate a system and write the raw multi-source log corpus.
//   corpus_tool generate --config scenario.txt --out DIR
//       Same, with every calibration knob taken from a scenario file
//       (see `corpus_tool dump-scenario S1` for a template).
//   corpus_tool dump-scenario S1..S5
//       Print a system's full scenario definition.
//   corpus_tool analyze DIR
//       Parse a corpus directory and print the full failure diagnosis.
//   corpus_tool summarize DIR
//       Print per-source volumes and the event-type inventory.
//   corpus_tool report DIR [OUT.md]
//       Write the full Markdown operator report (stdout by default).
//
// The analyze path is exactly what a site operator would run on their own
// (suitably formatted) logs: it never touches the simulator.
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include <fstream>
#include <sstream>

#include "core/advisor.hpp"
#include "core/engine.hpp"
#include "core/markdown_report.hpp"
#include "core/timeline.hpp"
#include "faultsim/scenario_io.hpp"
#include "core/root_cause.hpp"
#include "core/temporal.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "platform/system_config.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace hpcfail;

int usage() {
  std::cerr << "usage:\n"
               "  corpus_tool generate --system S1..S5 --days N --seed N --out DIR\n"
               "  corpus_tool generate --config scenario.txt --out DIR\n"
               "  corpus_tool analyze DIR\n"
               "  corpus_tool summarize DIR\n"
               "  corpus_tool report DIR [OUT.md]\n"
               "  corpus_tool dump-scenario S1..S5\n";
  return 2;
}

int cmd_generate(int argc, char** argv) {
  platform::SystemName system = platform::SystemName::S1;
  int days = 7;
  std::uint64_t seed = 42;
  std::string out;
  std::string config_path;
  for (int i = 2; i < argc - 1; ++i) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--system") {
      const auto parsed = platform::system_from_string(value);
      if (!parsed) {
        std::cerr << "unknown system " << value << "\n";
        return 2;
      }
      system = *parsed;
    } else if (flag == "--days") {
      const auto n = util::parse_u64(value);
      if (!n || *n < 1 || *n > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        std::cerr << "--days expects a positive integer, got '" << value << "'\n";
        return 2;
      }
      days = static_cast<int>(*n);
    } else if (flag == "--seed") {
      const auto n = util::parse_u64(value);
      if (!n) {
        std::cerr << "--seed expects a non-negative integer, got '" << value << "'\n";
        return 2;
      }
      seed = *n;
    } else if (flag == "--out") {
      out = value;
    } else if (flag == "--config") {
      config_path = value;
    }
  }
  if (out.empty()) return usage();

  faultsim::ScenarioConfig scenario = faultsim::scenario_preset(system, days, seed);
  if (!config_path.empty()) {
    std::ifstream file(config_path);
    if (!file) {
      std::cerr << "cannot open " << config_path << "\n";
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    scenario = faultsim::scenario_from_string(text.str());
  }
  const auto sim = faultsim::Simulator(scenario).run();
  const auto corpus = loggen::build_corpus(sim);
  loggen::write_corpus(corpus, out);
  std::cout << "wrote " << corpus.bytes() / 1024 << " KiB (" << sim.records.size()
            << " events, " << sim.jobs.size() << " jobs, " << sim.truth.failure_count()
            << " failures) to " << out << "\n";
  return 0;
}

int cmd_analyze(const std::string& dir) {
  const auto corpus = loggen::read_corpus(dir);
  const auto parsed = parsers::parse_corpus(corpus);
  std::cout << "parsed " << parsed.parsed_records << " records from " << parsed.total_lines
            << " lines (" << parsed.skipped_lines << " skipped)\n";

  // One engine run over the corpus window covers causes, lead times and
  // everything else the summary lines below print.
  const core::AnalysisEngine engine;
  const auto analysis =
      engine.analyze(parsed.store, &parsed.jobs, corpus.begin,
                     corpus.begin + util::Duration::days(corpus.days));
  const auto& failures = analysis.failures;
  std::cout << '\n'
            << core::render_cause_table(analysis.breakdown,
                                        "Diagnosed failures (" + corpus.system.label + ")");

  util::TextTable table({"time", "node", "cause", "conf", "job", "rationale"});
  for (const auto& f : failures) {
    table.row()
        .cell(util::format_iso(f.event.time))
        .cell(parsed.topology.node_name(f.event.node))
        .cell(std::string(to_string(f.inference.cause)))
        .cell(f.inference.confidence, 2)
        .cell(f.event.job_id == logmodel::kNoJob ? std::string("-")
                                                 : std::to_string(f.event.job_id))
        .cell(f.inference.rationale);
  }
  std::cout << '\n' << table.render();

  const auto& summary = analysis.lead_time_summary;
  std::cout << "\nlead times: " << util::fmt_pct(summary.enhanceable_fraction())
            << " enhanceable via external indicators, mean factor "
            << util::fmt_double(summary.enhancement_factor(), 1) << "x\n";

  // Fleet availability and recommended mitigations.
  const core::TimelineBuilder timeline(parsed.store, parsed.topology.node_count());
  const auto fleet = timeline.fleet_availability(
      corpus.begin, corpus.begin + util::Duration::days(corpus.days));
  std::cout << "fleet availability: " << util::fmt_pct(fleet.availability, 3) << " ("
            << util::fmt_double(fleet.node_hours_lost, 1) << " node-hours lost, mean repair "
            << util::fmt_double(fleet.repair_minutes.mean(), 0) << " min)\n";

  const core::MitigationAdvisor advisor;
  const auto actions =
      core::summarize_actions(advisor.advise(failures, &parsed.jobs), failures);
  std::cout << "recommended actions:";
  for (std::size_t a = 0; a < actions.counts.size(); ++a) {
    if (actions.counts[a] == 0) continue;
    std::cout << ' ' << to_string(static_cast<core::Action>(a)) << "=" << actions.counts[a];
  }
  std::cout << '\n';
  return 0;
}

int cmd_summarize(const std::string& dir) {
  const auto corpus = loggen::read_corpus(dir);
  const auto parsed = parsers::parse_corpus(corpus);

  std::cout << "system " << corpus.system.label << " (" << corpus.system.machine_type
            << "), " << corpus.days << " days from " << util::format_iso(corpus.begin)
            << "\n\n";
  util::TextTable sources({"source", "bytes", "records"});
  std::array<std::size_t, logmodel::kLogSourceCount> counts{};
  for (const auto& r : parsed.store.records()) {
    ++counts[static_cast<std::size_t>(r.source)];
  }
  for (std::size_t s = 0; s < logmodel::kLogSourceCount; ++s) {
    sources.row()
        .cell(std::string(to_string(static_cast<logmodel::LogSource>(s))))
        .cell(static_cast<std::int64_t>(corpus.text[s].size()))
        .cell(static_cast<std::int64_t>(counts[s]));
  }
  std::cout << sources.render() << '\n';

  util::TextTable types({"event type", "count"});
  for (std::size_t t = 0; t < logmodel::kEventTypeCount; ++t) {
    const auto count = parsed.store.count_of_type(static_cast<logmodel::EventType>(t));
    if (count == 0) continue;
    types.row()
        .cell(std::string(to_string(static_cast<logmodel::EventType>(t))))
        .cell(static_cast<std::int64_t>(count));
  }
  std::cout << types.render();
  return 0;
}

int cmd_report(const std::string& dir, const char* out_path) {
  const auto corpus = loggen::read_corpus(dir);
  const auto parsed = parsers::parse_corpus(corpus);
  core::ReportInputs inputs;
  inputs.store = &parsed.store;
  inputs.jobs = &parsed.jobs;
  inputs.topology = &parsed.topology;
  inputs.system_label = corpus.system.label;
  inputs.begin = corpus.begin;
  inputs.end = corpus.begin + util::Duration::days(corpus.days);
  const std::string report = core::markdown_report(inputs);
  if (out_path != nullptr) {
    std::ofstream file(out_path);
    if (!file) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    file << report;
    std::cout << "wrote report to " << out_path << "\n";
  } else {
    std::cout << report;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "analyze" && argc >= 3) return cmd_analyze(argv[2]);
    if (cmd == "summarize" && argc >= 3) return cmd_summarize(argv[2]);
    if (cmd == "report" && argc >= 3) {
      return cmd_report(argv[2], argc >= 4 ? argv[3] : nullptr);
    }
    if (cmd == "dump-scenario" && argc >= 3) {
      const auto system = platform::system_from_string(argv[2]);
      if (!system) {
        std::cerr << "unknown system " << argv[2] << "\n";
        return 2;
      }
      std::cout << faultsim::scenario_to_string(faultsim::scenario_preset(*system, 7, 42));
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
