// Workload inputs.  `perfbench prepare` generates them from the seed into a
// work directory (simulate, render, write corpora, save the boot snapshot,
// compute the reference report digests); `perfbench run` only reads them,
// so none of that work lands in a timed region or in the measured process's
// peak RSS.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/markdown_report.hpp"
#include "logmodel/event_type.hpp"
#include "parsers/corpus_parser.hpp"
#include "platform/system_config.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< S1 1-day inputs: the self-check scale
  std::string dir;    ///< work directory holding the prepared inputs
  std::string commit = "unknown";
};

struct CorpusSpec {
  hpcfail::platform::SystemName system;
  int days = 0;
};

/// postmortem: the on-disk corpora ingested every operation.
[[nodiscard]] std::vector<CorpusSpec> postmortem_corpora(bool tiny);
/// reproduce: the presets simulated, rendered and parsed every operation.
[[nodiscard]] std::vector<CorpusSpec> reproduce_presets(bool tiny);

/// live_tail open-loop rates: tail lines appended and requests due per
/// second.  Two requests in three see a new line, so the median request
/// pays an epoch rebuild.
inline constexpr double kTailLinesPerSecond = 15.0;
inline constexpr double kRequestsPerSecond = 20.0;

/// live_tail / dashboard: simulate `days` with `scenario_seed`, boot from
/// the first `boot_days`.  The scenario seed is fixed: across scenario seeds
/// the S2 month's boot replay yields either about 700 or about 8800 monitor
/// alerts (two clusters, not a spread), which moves per-request serve costs
/// by up to 4x and would drown any code change.  The workload seed instead
/// picks the replayed lines, the node_health target and the mix's phase.
inline constexpr std::uint64_t kServeScenarioSeed = 42;
struct ServeSpec {
  CorpusSpec corpus;
  int boot_days = 0;
  std::uint64_t scenario_seed = kServeScenarioSeed;
};
[[nodiscard]] ServeSpec serve_spec(bool tiny);

/// One line to append during the live_tail replay.
struct TailLine {
  hpcfail::logmodel::LogSource source;
  std::string text;
};

/// Paths inside the work directory.
[[nodiscard]] std::string corpus_dir(const Options& opt, std::size_t index);
[[nodiscard]] std::string boot_dir(const Options& opt);
[[nodiscard]] std::string boot_snapshot(const Options& opt);
[[nodiscard]] std::string tail_file(const Options& opt, hpcfail::logmodel::LogSource source);

/// Generates every input of opt.workload into opt.dir.
void prepare(const Options& opt);

/// Reference report digests written by prepare(), by corpus name.
[[nodiscard]] std::map<std::string, std::string> read_expected(const Options& opt);
/// The live_tail replay, in append order.
[[nodiscard]] std::vector<TailLine> read_tail_lines(const Options& opt);

/// The operator report over `corpus`, on the window the serve layer uses:
/// [max(first, end - 30 d), last record + 1 us).
[[nodiscard]] std::string report_of(const hpcfail::parsers::ParsedCorpus& corpus);

/// Sum of the per-source log file sizes in a corpus directory.
[[nodiscard]] std::uint64_t corpus_log_bytes(const std::string& dir);

[[nodiscard]] std::string corpus_name(const CorpusSpec& spec);

}  // namespace perfbench
