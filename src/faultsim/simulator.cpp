#include "faultsim/simulator.hpp"

#include <algorithm>
#include <unordered_set>

#include "jobs/workload.hpp"
#include "sensors/sensor_model.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace hpcfail::faultsim {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogSource;
using logmodel::RootCause;
using logmodel::Severity;

namespace {

/// Causes whose chain is driven by a running job.
bool job_driven(RootCause c) noexcept { return logmodel::is_application_triggered(c); }

/// Scenario-phase scope: a trace span over the phase plus a counter crediting
/// what the phase appended to `items` (log records; jobs for the workload
/// phase).  Both are inert when no sink/registry is installed.
template <typename T>
class PhaseScope {
 public:
  PhaseScope(const char* span_name, const char* counter_name, const std::vector<T>& items)
      : span_(span_name), counter_name_(counter_name), items_(items), before_(items.size()) {}
  ~PhaseScope() {
    if (util::MetricsRegistry* reg = util::metrics()) {
      reg->counter(counter_name_).add(items_.size() - before_);
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  util::TraceSpan span_;
  const char* counter_name_;
  const std::vector<T>& items_;
  std::size_t before_;
};

}  // namespace

struct Simulator::RunState {
  platform::Topology topo;
  util::Rng rng_workload;
  util::Rng rng_failures;
  util::Rng rng_benign;
  util::Rng rng_sensors;
  std::vector<LogRecord> records;
  logmodel::SymbolTable symbols;
  std::vector<jobs::Job> jobs;
  GroundTruth truth;
  ChainEmitter emitter;
  /// Nodes permanently powered off for the run (benign NHF sources and the
  /// 0-degree traces of Fig 11).
  std::unordered_set<std::uint32_t> powered_off;

  RunState(const ScenarioConfig& cfg, util::Rng root)
      : topo(cfg.system.topology),
        rng_workload(root.fork(1)),
        rng_failures(root.fork(2)),
        rng_benign(root.fork(3)),
        rng_sensors(root.fork(4)),
        emitter(topo, cfg.failures, records, symbols, truth, rng_failures) {}
};

Simulator::Simulator(ScenarioConfig config) : config_(std::move(config)) {}

SimulationResult Simulator::run() {
  util::TraceSpan run_span("hpcfail.sim.run");
  RunState st(config_, util::Rng{config_.seed});

  // A fixed, small powered-off population (about 0.2% of the machine).
  const std::uint32_t off_count = std::max<std::uint32_t>(1, st.topo.node_count() / 500);
  for (const auto idx : st.rng_benign.sample_indices(st.topo.node_count(), off_count)) {
    st.powered_off.insert(static_cast<std::uint32_t>(idx));
  }
  if (config_.sensors.force_power_off_node >= 0 &&
      config_.sensors.force_power_off_node < st.topo.node_count()) {
    st.powered_off.insert(static_cast<std::uint32_t>(config_.sensors.force_power_off_node));
  }

  if (config_.enable_jobs) {
    PhaseScope phase("hpcfail.sim.workload", "hpcfail.sim.workload_jobs", st.jobs);
    generate_workload(st);
  }
  {
    PhaseScope phase("hpcfail.sim.failures", "hpcfail.sim.failures_records", st.records);
    generate_failures(st);
  }
  {
    PhaseScope phase("hpcfail.sim.benign", "hpcfail.sim.benign_records", st.records);
    generate_benign(st);
  }
  if (config_.sensors.emit_readings) {
    PhaseScope phase("hpcfail.sim.sensor_readings", "hpcfail.sim.sensor_records",
                     st.records);
    generate_sensor_readings(st);
  }

  {
    // Scheduler records render from the final job outcomes, so emit last.
    PhaseScope phase("hpcfail.sim.job_records", "hpcfail.sim.job_log_records",
                     st.records);
    for (const auto& job : st.jobs) st.emitter.emit_job_records(job);
  }

  SimulationResult result{config_, st.topo,          std::move(st.records),
                          std::move(st.symbols), std::move(st.jobs), std::move(st.truth)};
  return result;
}

void Simulator::generate_workload(RunState& st) {
  jobs::WorkloadGenerator gen(st.topo, jobs::AppCatalog::standard(), config_.workload,
                              st.rng_workload);
  st.jobs = gen.generate(config_.begin, config_.end());
}

jobs::Job* Simulator::pick_running_job(RunState& st, util::TimePoint t,
                                       std::uint32_t min_nodes) {
  jobs::Job* best = nullptr;
  double best_score = 0.0;
  for (auto& job : st.jobs) {
    if (job.start > t || job.end <= t) continue;
    if (job.outcome != jobs::JobOutcome::Completed &&
        job.outcome != jobs::JobOutcome::NonZeroExit) {
      continue;  // already doomed by another chain or scheduler-side event
    }
    // Prefer larger jobs (more nodes to take down) with a mild random tilt.
    const double score =
        static_cast<double>(std::min<std::size_t>(job.nodes.size(), 64)) *
        st.rng_failures.uniform(0.5, 1.0) +
        (job.nodes.size() >= min_nodes ? 100.0 : 0.0);
    if (score > best_score) {
      best_score = score;
      best = &job;
    }
  }
  return best;
}

void Simulator::generate_failures(RunState& st) {
  const FailureProcessConfig& fp = config_.failures;
  std::vector<double> weights(fp.cause_weights.begin(), fp.cause_weights.end());
  const bool any_weight = std::any_of(weights.begin(), weights.end(),
                                      [](double w) { return w > 0.0; });
  if (!any_weight) return;

  auto sample_cause = [&]() {
    return static_cast<RootCause>(st.rng_failures.weighted_index(weights));
  };

  auto random_node = [&st]() {
    return platform::NodeId{static_cast<std::uint32_t>(
        st.rng_failures.uniform_int(0, static_cast<std::int64_t>(st.topo.node_count()) - 1))};
  };

  // Plants one burst of `count` failures with a shared root cause starting
  // at `burst_start`, spread over fp.burst_spread_minutes.
  auto plant_burst = [&](util::TimePoint burst_start, RootCause cause, int count) {
    if (count <= 0) return;
    jobs::Job* job = nullptr;
    std::vector<platform::NodeId> victims;

    if (job_driven(cause)) {
      job = pick_running_job(st, burst_start, static_cast<std::uint32_t>(count));
      if (job != nullptr) {
        // Take up to `count` of the job's nodes.
        std::vector<platform::NodeId> pool = job->nodes;
        st.rng_failures.shuffle(pool);
        const auto take = std::min<std::size_t>(pool.size(), static_cast<std::size_t>(count));
        victims.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(take));
      } else {
        // No suitable job running: a single non-job-attributed failure.
        victims.push_back(random_node());
      }
    } else {
      // Hardware / unknown causes: sometimes a whole blade, else scattered.
      if (st.rng_failures.bernoulli(fp.hw_burst_same_blade_p)) {
        const platform::BladeId blade{static_cast<std::uint32_t>(st.rng_failures.uniform_int(
            0, static_cast<std::int64_t>(st.topo.blade_count()) - 1))};
        for (const auto n : st.topo.nodes_on_blade(blade)) {
          if (victims.size() < static_cast<std::size_t>(count)) victims.push_back(n);
        }
      }
      while (victims.size() < static_cast<std::size_t>(count)) {
        victims.push_back(random_node());
      }
    }

    // Failures inside a burst are spread over the burst window with
    // exponential inter-arrivals (short MTBFs, Fig 3).
    const double mean_gap_min =
        fp.burst_spread_minutes / std::max<std::size_t>(1, victims.size());
    util::TimePoint t = burst_start;
    std::unordered_set<std::uint32_t> used;
    for (const auto node : victims) {
      if (!used.insert(node.value).second) continue;  // node already failed
      const auto& planted = st.emitter.plant_failure(node, t, cause, job);
      // Blade-level health fault near the failure (Fig 7's weak blade
      // correlation).
      if (st.rng_failures.bernoulli(fp.blade_fault_near_failure_p)) {
        LogRecord bchf;
        bchf.time = t - util::Duration::seconds(st.rng_failures.uniform_int(30, 900));
        bchf.source = LogSource::Controller;
        bchf.type = st.rng_failures.bernoulli(0.6) ? EventType::BladeHeartbeatFault
                                                   : EventType::GetSensorReadingFailed;
        bchf.severity = Severity::Warning;
        bchf.blade = planted.blade;
        bchf.cabinet = planted.cabinet;
        bchf.detail = st.symbols.intern("blade controller health fault");
        st.records.push_back(std::move(bchf));
      }
      t = t + util::Duration::seconds(static_cast<std::int64_t>(
                  st.rng_failures.exponential(1.0 / std::max(0.05, mean_gap_min)) * 60.0));
    }

    if (job != nullptr && !victims.empty()) {
      // The job dies with its nodes.
      job->outcome = cause == RootCause::MemoryExhaustion ? jobs::JobOutcome::OomKilled
                                                          : jobs::JobOutcome::NodeFailure;
      const util::TimePoint cut = t + util::Duration::minutes(1);
      if (job->end > cut) job->end = cut;
    }
  };

  for (int day = 0; day < config_.days; ++day) {
    const util::TimePoint day_start = config_.begin + util::Duration::days(day);
    if (st.rng_failures.bernoulli(fp.failure_day_fraction)) {
      const int bursts = 1 + static_cast<int>(st.rng_failures.poisson(fp.extra_bursts_mean));
      for (int b = 0; b < bursts; ++b) {
        const util::TimePoint burst_start =
            day_start + util::Duration::seconds(st.rng_failures.uniform_int(0, 86399 - 3600));
        const RootCause cause = sample_cause();
        // The first (dominant) burst is the big one; extra bursts are small.
        const int count =
            b == 0 ? 2 + static_cast<int>(st.rng_failures.poisson(
                             std::max(0.0, fp.dominant_burst_mean - 2.0)))
                   : 1 + static_cast<int>(st.rng_failures.poisson(1.0));
        plant_burst(burst_start, cause, count);
      }
    }
    // Isolated failures, independent causes.
    const auto isolated = st.rng_failures.poisson(fp.isolated_failures_per_day);
    for (std::int64_t i = 0; i < isolated; ++i) {
      const util::TimePoint t =
          day_start + util::Duration::seconds(st.rng_failures.uniform_int(0, 86399));
      plant_burst(t, sample_cause(), 1);
    }
  }
}

void Simulator::generate_benign(RunState& st) {
  const BenignProcessConfig& bp = config_.benign;
  const std::uint32_t blades = st.topo.blade_count();
  const std::uint32_t cabinets = st.topo.cabinet_count();

  auto random_node = [&st]() {
    return platform::NodeId{static_cast<std::uint32_t>(
        st.rng_benign.uniform_int(0, static_cast<std::int64_t>(st.topo.node_count()) - 1))};
  };
  auto random_blade = [&st, blades]() {
    return platform::BladeId{static_cast<std::uint32_t>(
        st.rng_benign.uniform_int(0, static_cast<std::int64_t>(blades) - 1))};
  };
  auto day_time = [&st](util::TimePoint day_start) {
    return day_start + util::Duration::seconds(st.rng_benign.uniform_int(0, 86399));
  };

  // Stable deviant-blade population for the whole run; each carries its
  // own sensor state so the warning storms are genuine threshold crossings.
  std::vector<std::pair<platform::BladeId, sensors::BladeSensors>> deviant_blades;
  const auto deviant_count =
      static_cast<std::uint32_t>(bp.deviant_blade_fraction * static_cast<double>(blades));
  for (const auto idx : st.rng_benign.sample_indices(blades, deviant_count)) {
    deviant_blades.emplace_back(
        platform::BladeId{static_cast<std::uint32_t>(idx)},
        sensors::BladeSensors(st.rng_sensors.fork(0x5edc0000u + idx), /*deviant=*/true));
  }

  // Cabinets of today's failures get priority in the noisy subset
  // (cabinet_fault_near_failure_p), the rest is random.
  std::vector<std::vector<platform::CabinetId>> failure_cabinets_by_day(
      static_cast<std::size_t>(config_.days));
  for (const auto& f : st.truth.failures) {
    const auto day = (f.fail_time - config_.begin).usec / util::Duration::days(1).usec;
    if (day >= 0 && day < config_.days) {
      failure_cabinets_by_day[static_cast<std::size_t>(day)].push_back(f.cabinet);
    }
  }

  static constexpr EventType kSedcKinds[] = {EventType::SedcAirVelocityWarning,
                                             EventType::SedcTemperatureWarning,
                                             EventType::SedcVoltageWarning,
                                             EventType::SedcFanSpeedWarning};
  static constexpr double kSedcWeights[] = {0.45, 0.3, 0.15, 0.10};

  for (int day = 0; day < config_.days; ++day) {
    const util::TimePoint day_start = config_.begin + util::Duration::days(day);

    // Benign NHFs: powered-off nodes and skipped heartbeats.
    const auto nhfs = st.rng_benign.poisson(bp.benign_nhf_per_day);
    for (std::int64_t i = 0; i < nhfs; ++i) {
      const bool power_off = st.rng_benign.bernoulli(bp.nhf_power_off_fraction);
      platform::NodeId node;
      if (power_off && !st.powered_off.empty()) {
        auto it = st.powered_off.begin();
        std::advance(it, st.rng_benign.uniform_int(
                             0, static_cast<std::int64_t>(st.powered_off.size()) - 1));
        node = platform::NodeId{*it};
      } else {
        node = random_node();
      }
      st.emitter.emit_benign_nhf(node, day_time(day_start), power_off);
    }

    // Benign NVFs (rare).
    if (st.rng_benign.bernoulli(bp.benign_nvf_per_month / 30.0)) {
      st.emitter.emit_benign_nvf(random_node(), day_time(day_start));
    }

    // SEDC warning storms on deviant blades: the controller samples each
    // blade's sensors on its cadence and emits a warning per out-of-band
    // reading, carrying the actual reading as the value.
    if (bp.sedc_sample_interval_minutes > 0.0) {
      static constexpr sensors::SensorKind kSampledKinds[] = {
          sensors::SensorKind::AirVelocity, sensors::SensorKind::CpuTemperature,
          sensors::SensorKind::Voltage, sensors::SensorKind::FanSpeed};
      static constexpr logmodel::EventType kWarningFor[] = {
          EventType::SedcAirVelocityWarning, EventType::SedcTemperatureWarning,
          EventType::SedcVoltageWarning, EventType::SedcFanSpeedWarning};
      for (auto& [blade, model] : deviant_blades) {
        double minute = 0.0;
        while (minute < 1440.0) {
          model.step(bp.sedc_sample_interval_minutes);
          const util::TimePoint t =
              day_start + util::Duration::seconds(static_cast<std::int64_t>(minute * 60.0));
          for (std::size_t k = 0; k < 4; ++k) {
            if (model.violates(kSampledKinds[k])) {
              st.emitter.emit_sedc_warning(blade, t, kWarningFor[k],
                                           model.reading(kSampledKinds[k]));
            }
          }
          minute += bp.sedc_sample_interval_minutes;
        }
      }
    }

    // Transient SEDC warnings on random healthy blades.
    const auto transients = st.rng_benign.poisson(bp.transient_sedc_warnings_per_day);
    for (std::int64_t i = 0; i < transients; ++i) {
      const std::size_t kind = st.rng_benign.weighted_index(kSedcWeights);
      st.emitter.emit_sedc_warning(random_blade(), day_time(day_start), kSedcKinds[kind],
                                   st.rng_benign.uniform(0.4, 1.7));
    }

    // Cabinet chatter concentrated on a daily noisy subset.
    if (bp.cabinet_faults_per_day > 0.0 && cabinets > 0) {
      std::vector<platform::CabinetId> noisy;
      for (const auto cab : failure_cabinets_by_day[static_cast<std::size_t>(day)]) {
        if (st.rng_benign.bernoulli(config_.failures.cabinet_fault_near_failure_p)) {
          noisy.push_back(cab);
        }
      }
      const auto extra = std::max<std::uint32_t>(1, cabinets / 6);
      for (const auto idx : st.rng_benign.sample_indices(cabinets, extra)) {
        noisy.push_back(platform::CabinetId{static_cast<std::uint32_t>(idx)});
      }
      const auto faults = st.rng_benign.poisson(bp.cabinet_faults_per_day);
      for (std::int64_t i = 0; i < faults; ++i) {
        const auto& cab = noisy[static_cast<std::size_t>(
            st.rng_benign.uniform_int(0, static_cast<std::int64_t>(noisy.size()) - 1))];
        st.emitter.emit_cabinet_fault(cab, day_time(day_start));
      }
    }

    // Benign per-node error populations (Fig 10).
    struct ErrorPop {
      double rate;
      EventType type;
    };
    const ErrorPop pops[] = {
        {bp.benign_hw_error_nodes_per_day, EventType::HardwareError},
        {bp.benign_mce_nodes_per_day, EventType::MachineCheckException},
        {bp.benign_lustre_nodes_per_day, EventType::LustreError},
    };
    for (const auto& pop : pops) {
      const auto nodes = st.rng_benign.poisson(pop.rate);
      for (std::int64_t i = 0; i < nodes; ++i) {
        st.emitter.emit_benign_node_errors(random_node(), day_time(day_start), pop.type);
      }
    }

    // Hung-task storms (institutional cluster).
    const auto hung = st.rng_benign.poisson(bp.hung_task_nodes_per_day);
    for (std::int64_t i = 0; i < hung; ++i) {
      st.emitter.emit_hung_task(random_node(), day_time(day_start));
    }

    // Benign oom-killer and software-error populations.
    const auto ooms = st.rng_benign.poisson(bp.benign_oom_nodes_per_day);
    for (std::int64_t i = 0; i < ooms; ++i) {
      st.emitter.emit_benign_oom(random_node(), day_time(day_start));
    }
    const auto sw = st.rng_benign.poisson(bp.benign_sw_error_nodes_per_day);
    for (std::int64_t i = 0; i < sw; ++i) {
      st.emitter.emit_benign_sw_error(random_node(), day_time(day_start));
    }

    // Healthy look-alike episodes (hardware error -> MCE without failure).
    const auto episodes = st.rng_benign.poisson(bp.multi_error_episode_nodes_per_day);
    for (std::int64_t i = 0; i < episodes; ++i) {
      st.emitter.emit_multi_error_episode(
          random_node(), day_time(day_start),
          st.rng_benign.bernoulli(bp.multi_error_external_fraction));
    }

    // HSN lane degrades; most fail over cleanly.
    const auto degrades = st.rng_benign.poisson(bp.lane_degrades_per_day);
    for (std::int64_t i = 0; i < degrades; ++i) {
      st.emitter.emit_lane_degrade(random_blade(), day_time(day_start),
                                   !st.rng_benign.bernoulli(bp.failover_failure_fraction));
    }

    // Scheduled maintenance: one whole cabinet intentionally down for hours.
    if (st.rng_benign.bernoulli(bp.maintenance_windows_per_month / 30.0)) {
      const platform::CabinetId cabinet{static_cast<std::uint32_t>(st.rng_benign.uniform_int(
          0, static_cast<std::int64_t>(st.topo.cabinet_count()) - 1))};
      const util::TimePoint t = day_start + util::Duration::hours(6);
      const util::Duration downtime = util::Duration::hours(st.rng_benign.uniform_int(2, 8));
      for (std::uint32_t n = 0; n < st.topo.node_count(); ++n) {
        const platform::NodeId node{n};
        if (st.topo.cabinet_of(node) == cabinet) {
          st.emitter.emit_intended_shutdown(node, t, downtime);
        }
      }
    }

    // System-wide outage: a file-system incident downs a node swath.
    if (st.rng_benign.bernoulli(bp.swo_per_month / 30.0)) {
      const auto count = static_cast<std::size_t>(
          bp.swo_node_fraction * static_cast<double>(st.topo.node_count()));
      std::vector<platform::NodeId> swo_nodes;
      for (const auto idx : st.rng_benign.sample_indices(st.topo.node_count(), count)) {
        swo_nodes.push_back(platform::NodeId{static_cast<std::uint32_t>(idx)});
      }
      st.emitter.emit_swo(swo_nodes, day_time(day_start));
    }

    // Background ec_hw_errors during healthy times.
    const auto background = st.rng_benign.poisson(bp.background_ec_hw_errors_per_day);
    for (std::int64_t i = 0; i < background; ++i) {
      st.emitter.emit_background_ec_hw_error(random_blade(), day_time(day_start));
    }
  }
}

void Simulator::generate_sensor_readings(RunState& st) {
  const SensorProcessConfig& sp = config_.sensors;
  const std::uint32_t blades = std::min(sp.reading_blade_count, st.topo.blade_count());
  if (blades == 0 || sp.reading_interval_minutes <= 0.0) return;

  const double total_minutes = static_cast<double>(config_.days) * 1440.0;
  for (std::uint32_t b = 0; b < blades; ++b) {
    const platform::BladeId blade{b};
    sensors::BladeSensors model(st.rng_sensors.fork(b), /*deviant=*/false);
    const auto nodes = st.topo.nodes_on_blade(blade);
    double minute = 0.0;
    while (minute < total_minutes) {
      model.step(sp.reading_interval_minutes);
      const util::TimePoint t =
          config_.begin + util::Duration::seconds(static_cast<std::int64_t>(minute * 60.0));
      for (const auto node : nodes) {
        LogRecord r;
        r.time = t;
        r.source = LogSource::Controller;
        r.type = EventType::SedcReading;
        r.severity = Severity::Info;
        r.node = node;
        r.blade = blade;
        r.cabinet = st.topo.cabinet_of_blade(blade);
        r.detail = st.symbols.intern("CpuTemperature");
        const bool off = st.powered_off.contains(node.value);
        r.value = off ? 0.0
                      : model.reading(sensors::SensorKind::CpuTemperature) +
                            st.rng_sensors.normal(0.0, 0.4);
        st.records.push_back(std::move(r));
      }
      minute += sp.reading_interval_minutes;
    }
  }
}

}  // namespace hpcfail::faultsim
