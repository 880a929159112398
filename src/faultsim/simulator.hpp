// Discrete-event synthesis of a full multi-source log corpus for one
// scenario: workload, failure bursts with propagation chains, benign fault
// populations and (optionally) raw sensor readings.
//
// The output is structured records plus the ground-truth ledger; the loggen
// module renders the records to raw text and the parsers re-ingest that
// text, so the analysis pipeline exercises the same path it would on
// production logs.
#pragma once

#include <vector>

#include "faultsim/chain_emitter.hpp"
#include "faultsim/ground_truth.hpp"
#include "faultsim/scenario.hpp"
#include "jobs/job.hpp"
#include "logmodel/log_store.hpp"
#include "platform/topology.hpp"

namespace hpcfail::faultsim {

struct SimulationResult {
  ScenarioConfig config;
  platform::Topology topology;
  std::vector<logmodel::LogRecord> records;  ///< unsorted; LogStore sorts
  logmodel::SymbolTable symbols;             ///< resolves records[i].detail
  std::vector<jobs::Job> jobs;
  GroundTruth truth;

  /// Builds a LogStore over a copy of the records (and of the
  /// symbol table resolving their details).
  [[nodiscard]] logmodel::LogStore make_store() const {
    return logmodel::LogStore{std::vector<logmodel::LogRecord>(records), symbols};
  }
};

class Simulator {
 public:
  explicit Simulator(ScenarioConfig config);

  /// Runs the whole scenario. Deterministic in the config (seed included).
  [[nodiscard]] SimulationResult run();

 private:
  struct RunState;

  void generate_workload(RunState& st);
  void generate_failures(RunState& st);
  void generate_benign(RunState& st);
  void generate_sensor_readings(RunState& st);

  /// Picks a job running at `t` suitable for an application-triggered
  /// chain; nullptr when none is running.
  [[nodiscard]] jobs::Job* pick_running_job(RunState& st, util::TimePoint t,
                                            std::uint32_t min_nodes);

  ScenarioConfig config_;
};

}  // namespace hpcfail::faultsim
