// Live monitoring through the serve layer: boot a resident Server over an
// empty store, then feed the simulated console log into a tail file in
// slices — exactly how a deployment would follow a growing log.  The
// daemon's TailReader/OnlineMonitor pipeline turns each slice into alerts
// and a new epoch; the manual record-replay loop this example used to
// carry now lives (tested) inside serve::Server.  Closes with the daemon's
// own status line and the mitigation advisor's fleet summary — the
// deployment story the paper's Table VI recommendations describe.
//
//   ./examples/live_monitor [days] [seed]
#include <cstdlib>
#include <array>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/advisor.hpp"
#include "core/analysis_context.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/corpus_parser.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hpcfail;
  const int days = argc > 1 ? std::atoi(argv[1]) : 2;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 21;

  const auto sim = faultsim::Simulator(
                       faultsim::scenario_preset(platform::SystemName::S1, days, seed))
                       .run();
  const auto corpus = loggen::build_corpus(sim);

  // Boot the daemon "cold": same machine header, no records yet.  Every
  // record it ever sees arrives through the tail, like a real deployment
  // attached to a console log at install time.
  loggen::Corpus header_only = corpus;
  for (auto& text : header_only.text) text.clear();
  serve::Server server(parsers::parse_corpus(header_only));

  const std::string tail_path = "/tmp/hpcfail_live_monitor_tail.log";
  std::filesystem::remove(tail_path);
  server.attach_tail(tail_path, logmodel::LogSource::Console);

  const std::string& console = corpus.of(logmodel::LogSource::Console);
  std::cout << "streaming " << console.size() << " console bytes (" << days
            << " days of S1) through the serve tail...\n\n";

  // Append the log in slices (cut to line boundaries by the reader's
  // partial-line rule) and poll between appends — the daemon sees the
  // same lines a tail -f would.
  constexpr std::size_t kSlices = 16;
  const std::size_t slice = console.size() / kSlices + 1;
  std::size_t shown = 0;
  std::array<std::size_t, 4> kind_counts{};
  for (std::size_t offset = 0; offset < console.size(); offset += slice) {
    {
      std::ofstream tail(tail_path, std::ios::app | std::ios::binary);
      tail << console.substr(offset, slice);
    }
    const auto poll = server.poll_tail();
    if (!poll.ok()) {
      std::cerr << "tail error: " << poll.error->to_string() << '\n';
      break;
    }
    for (const auto& alert : poll.alerts) {
      ++kind_counts[static_cast<std::size_t>(alert.kind)];
      if (shown < 40) {
        std::cout << util::format_iso(alert.time) << "  "
                  << server.topology().node_name(alert.node) << "  "
                  << to_string(alert.kind);
        if (alert.suspected != logmodel::RootCause::Unknown) {
          std::cout << " [" << to_string(alert.suspected) << "]";
        }
        std::cout << "  " << alert.message << '\n';
        ++shown;
      }
    }
  }
  std::cout << "\nalert totals: ";
  for (std::size_t k = 0; k < kind_counts.size(); ++k) {
    std::cout << to_string(static_cast<core::AlertKind>(k)) << "=" << kind_counts[k] << ' ';
  }
  std::cout << "\n\nthe daemon's own view (epoch " << server.epoch() << "):\n"
            << server.handle_line(R"({"id":1,"verb":"status"})") << "\n\n";

  // Post-hoc: what should the operator do about each confirmed failure?
  // The advisor wants the full multi-source window, so analyze the parsed
  // corpus directly (the daemon above only followed the console stream).
  const auto parsed = parsers::parse_corpus(corpus);
  const core::AnalysisContext analysis_ctx(parsed.store, &parsed.jobs);
  const auto& failures = analysis_ctx.failures();
  const core::MitigationAdvisor advisor;
  const auto recommendations = advisor.advise(failures, &parsed.jobs);
  const auto summary = core::summarize_actions(recommendations, failures);

  util::TextTable table({"recommended action", "failures"});
  for (std::size_t a = 0; a < summary.counts.size(); ++a) {
    if (summary.counts[a] == 0) continue;
    table.row()
        .cell(std::string(to_string(static_cast<core::Action>(a))))
        .cell(static_cast<std::int64_t>(summary.counts[a]));
  }
  std::cout << table.render();
  std::cout << "\nquarantining by default would have wasted nodes on "
            << util::fmt_pct(summary.quarantine_waste_fraction)
            << " of failures (application-triggered; Observation 6).\n";
  std::filesystem::remove(tail_path);
  return 0;
}
