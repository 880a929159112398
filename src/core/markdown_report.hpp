// One-call operator report: everything the pipeline knows about a log
// window, rendered as Markdown — failure breakdown, temporal and external
// correlation statistics, lead times, fleet availability and per-failure
// mitigation advice.  This is the artifact a site operator would attach to
// a weekly review; corpus_tool's `report` subcommand writes it.
#pragma once

#include <string>

#include "core/root_cause.hpp"
#include "jobs/job_table.hpp"
#include "logmodel/log_store.hpp"
#include "platform/topology.hpp"

namespace hpcfail::core {

struct AnalysisResult;

struct ReportInputs {
  const logmodel::LogStore* store = nullptr;
  const jobs::JobTable* jobs = nullptr;         ///< may be null
  const platform::Topology* topology = nullptr;
  std::string system_label = "?";
  util::TimePoint begin;
  util::TimePoint end;
};

/// Runs the full analysis (a default-configured AnalysisEngine over
/// inputs.store, inputs.jobs and [inputs.begin, inputs.end)) and renders
/// the report.
[[nodiscard]] std::string markdown_report(const ReportInputs& inputs);

/// Renders the report from a finished analysis instead of running the
/// engine again — for callers that already hold one (the query daemon's
/// per-epoch cache).  Precondition: `analysis` was computed over the same
/// store, jobs and window as `inputs`; the window is checked and a
/// mismatch throws std::invalid_argument.  Given the engine run the
/// one-argument form makes, the output is byte-identical to it.
[[nodiscard]] std::string markdown_report(const ReportInputs& inputs,
                                          const AnalysisResult& analysis);

}  // namespace hpcfail::core
