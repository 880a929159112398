#include "faultsim/scenario_io.hpp"

#include <functional>
#include <new>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/fault.hpp"
#include "util/strings.hpp"

namespace hpcfail::faultsim {

namespace {

struct DoubleKey {
  const char* name;
  std::function<double(const ScenarioConfig&)> get;  ///< dump path (const)
  std::function<double&(ScenarioConfig&)> set;       ///< parse path
};

/// Builds both sides of a DoubleKey from one generic field accessor, so each
/// knob is still spelled once and the dump path needs no const_cast.
template <typename Accessor>
DoubleKey make_key(const char* name, Accessor field) {
  return {name, [field](const ScenarioConfig& c) -> double { return field(c); },
          [field](ScenarioConfig& c) -> double& { return field(c); }};
}

/// Single registry of every double-valued knob; drives dump and parse.
const std::vector<DoubleKey>& double_keys() {
  static const std::vector<DoubleKey> keys = {
      make_key("failures.failure_day_fraction",
       [](auto& c) -> auto& { return c.failures.failure_day_fraction; }),
      make_key("failures.extra_bursts_mean",
       [](auto& c) -> auto& { return c.failures.extra_bursts_mean; }),
      make_key("failures.dominant_burst_mean",
       [](auto& c) -> auto& { return c.failures.dominant_burst_mean; }),
      make_key("failures.burst_spread_minutes",
       [](auto& c) -> auto& { return c.failures.burst_spread_minutes; }),
      make_key("failures.isolated_failures_per_day",
       [](auto& c) -> auto& { return c.failures.isolated_failures_per_day; }),
      make_key("failures.external_lead_min_minutes",
       [](auto& c) -> auto& { return c.failures.external_lead_min_minutes; }),
      make_key("failures.external_lead_max_minutes",
       [](auto& c) -> auto& { return c.failures.external_lead_max_minutes; }),
      make_key("failures.internal_lead_min_minutes",
       [](auto& c) -> auto& { return c.failures.internal_lead_min_minutes; }),
      make_key("failures.internal_lead_max_minutes",
       [](auto& c) -> auto& { return c.failures.internal_lead_max_minutes; }),
      make_key("failures.blade_fault_near_failure_p",
       [](auto& c) -> auto& { return c.failures.blade_fault_near_failure_p; }),
      make_key("failures.cabinet_fault_near_failure_p",
       [](auto& c) -> auto& { return c.failures.cabinet_fault_near_failure_p; }),
      make_key("failures.hw_burst_same_blade_p",
       [](auto& c) -> auto& { return c.failures.hw_burst_same_blade_p; }),
      make_key("benign.benign_nhf_per_day",
       [](auto& c) -> auto& { return c.benign.benign_nhf_per_day; }),
      make_key("benign.nhf_power_off_fraction",
       [](auto& c) -> auto& { return c.benign.nhf_power_off_fraction; }),
      make_key("benign.benign_nvf_per_month",
       [](auto& c) -> auto& { return c.benign.benign_nvf_per_month; }),
      make_key("benign.deviant_blade_fraction",
       [](auto& c) -> auto& { return c.benign.deviant_blade_fraction; }),
      make_key("benign.sedc_sample_interval_minutes",
       [](auto& c) -> auto& { return c.benign.sedc_sample_interval_minutes; }),
      make_key("benign.transient_sedc_warnings_per_day",
       [](auto& c) -> auto& { return c.benign.transient_sedc_warnings_per_day; }),
      make_key("benign.cabinet_faults_per_day",
       [](auto& c) -> auto& { return c.benign.cabinet_faults_per_day; }),
      make_key("benign.benign_hw_error_nodes_per_day",
       [](auto& c) -> auto& { return c.benign.benign_hw_error_nodes_per_day; }),
      make_key("benign.benign_mce_nodes_per_day",
       [](auto& c) -> auto& { return c.benign.benign_mce_nodes_per_day; }),
      make_key("benign.benign_lustre_nodes_per_day",
       [](auto& c) -> auto& { return c.benign.benign_lustre_nodes_per_day; }),
      make_key("benign.benign_oom_nodes_per_day",
       [](auto& c) -> auto& { return c.benign.benign_oom_nodes_per_day; }),
      make_key("benign.benign_sw_error_nodes_per_day",
       [](auto& c) -> auto& { return c.benign.benign_sw_error_nodes_per_day; }),
      make_key("benign.multi_error_episode_nodes_per_day",
       [](auto& c) -> auto& {
         return c.benign.multi_error_episode_nodes_per_day;
       }),
      make_key("benign.multi_error_external_fraction",
       [](auto& c) -> auto& { return c.benign.multi_error_external_fraction; }),
      make_key("benign.background_ec_hw_errors_per_day",
       [](auto& c) -> auto& { return c.benign.background_ec_hw_errors_per_day; }),
      make_key("benign.hung_task_nodes_per_day",
       [](auto& c) -> auto& { return c.benign.hung_task_nodes_per_day; }),
      make_key("benign.maintenance_windows_per_month",
       [](auto& c) -> auto& { return c.benign.maintenance_windows_per_month; }),
      make_key("benign.swo_per_month",
       [](auto& c) -> auto& { return c.benign.swo_per_month; }),
      make_key("benign.swo_node_fraction",
       [](auto& c) -> auto& { return c.benign.swo_node_fraction; }),
      make_key("benign.routine_chatter_lines_per_day",
       [](auto& c) -> auto& { return c.benign.routine_chatter_lines_per_day; }),
      make_key("benign.lane_degrades_per_day",
       [](auto& c) -> auto& { return c.benign.lane_degrades_per_day; }),
      make_key("benign.failover_failure_fraction",
       [](auto& c) -> auto& { return c.benign.failover_failure_fraction; }),
      make_key("sensors.reading_interval_minutes",
       [](auto& c) -> auto& { return c.sensors.reading_interval_minutes; }),
      make_key("workload.arrivals_per_hour",
       [](auto& c) -> auto& { return c.workload.arrivals_per_hour; }),
      make_key("workload.duration_lognorm_mu",
       [](auto& c) -> auto& { return c.workload.duration_lognorm_mu; }),
      make_key("workload.duration_lognorm_sigma",
       [](auto& c) -> auto& { return c.workload.duration_lognorm_sigma; }),
      make_key("workload.blade_packed_fraction",
       [](auto& c) -> auto& { return c.workload.blade_packed_fraction; }),
  };
  return keys;
}

}  // namespace

std::string scenario_to_string(const ScenarioConfig& config) {
  if (HPCFAIL_FAULT_SITE("faultsim.scenario_io.bad_alloc")) throw std::bad_alloc{};
  std::ostringstream out;
  out << "# hpcfail scenario\n";
  out << "system = " << platform::to_string(config.system.name) << '\n';
  out << "days = " << config.days << '\n';
  out << "seed = " << config.seed << '\n';
  out << "begin = " << util::format_iso(config.begin) << '\n';
  out << "enable_jobs = " << (config.enable_jobs ? 1 : 0) << '\n';
  out << "sensors.emit_readings = " << (config.sensors.emit_readings ? 1 : 0) << '\n';
  out << "sensors.reading_blade_count = " << config.sensors.reading_blade_count << '\n';
  const auto& topo = config.system.topology;
  out << "topology.cabinet_cols = " << topo.cabinet_cols << '\n'
      << "topology.cabinet_rows = " << topo.cabinet_rows << '\n'
      << "topology.chassis_per_cabinet = " << topo.chassis_per_cabinet << '\n'
      << "topology.slots_per_chassis = " << topo.slots_per_chassis << '\n'
      << "topology.nodes_per_slot = " << topo.nodes_per_slot << '\n'
      << "topology.max_nodes = " << topo.max_nodes << '\n';

  for (const auto& key : double_keys()) {
    out << key.name << " = " << key.get(config) << '\n';
  }
  for (std::size_t i = 0; i < logmodel::kRootCauseCount; ++i) {
    const double w = config.failures.cause_weights[i];
    if (w > 0.0) {
      out << "cause_weights." << to_string(static_cast<logmodel::RootCause>(i)) << " = "
          << w << '\n';
    }
  }
  return out.str();
}

void apply_scenario_overrides(ScenarioConfig& config, const std::string& text) {
  for (const auto raw_line : util::split(text, '\n')) {
    const auto line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("scenario: malformed line: " + std::string(line));
    }
    const auto key = util::trim(line.substr(0, eq));
    const auto value = util::trim(line.substr(eq + 1));
    auto bad_value = [&] {
      return std::runtime_error("scenario: bad value for " + std::string(key) + ": " +
                                std::string(value));
    };

    if (key == "system") {
      const auto name = platform::system_from_string(value);
      if (!name) throw bad_value();
      config.system = platform::system_preset(*name);
      continue;
    }
    if (key == "days") {
      const auto v = util::parse_i64(value);
      if (!v || *v <= 0) throw bad_value();
      config.days = static_cast<int>(*v);
      continue;
    }
    if (key == "seed") {
      const auto v = util::parse_u64(value);
      if (!v) throw bad_value();
      config.seed = *v;
      continue;
    }
    if (key == "begin") {
      const auto t = util::parse_iso(value);
      if (!t) throw bad_value();
      config.begin = *t;
      continue;
    }
    if (key == "enable_jobs") {
      config.enable_jobs = value != "0";
      continue;
    }
    if (key == "sensors.emit_readings") {
      config.sensors.emit_readings = value != "0";
      continue;
    }
    if (key == "sensors.reading_blade_count") {
      const auto v = util::parse_u64(value);
      if (!v) throw bad_value();
      config.sensors.reading_blade_count = static_cast<std::uint32_t>(*v);
      continue;
    }
    if (key == "sensors.force_power_off_node") {
      const auto v = util::parse_i64(value);
      if (!v) throw bad_value();
      config.sensors.force_power_off_node = *v;
      continue;
    }
    // Topology overrides let users shrink the machine (tests, fixtures).
    if (const auto field = util::strip_prefix(key, "topology.")) {
      const auto v = util::parse_i64(value);
      if (!v || *v < 0) throw bad_value();
      auto& topo = config.system.topology;
      if (*field == "cabinet_cols") {
        topo.cabinet_cols = static_cast<int>(*v);
      } else if (*field == "cabinet_rows") {
        topo.cabinet_rows = static_cast<int>(*v);
      } else if (*field == "chassis_per_cabinet") {
        topo.chassis_per_cabinet = static_cast<int>(*v);
      } else if (*field == "slots_per_chassis") {
        topo.slots_per_chassis = static_cast<int>(*v);
      } else if (*field == "nodes_per_slot") {
        topo.nodes_per_slot = static_cast<int>(*v);
      } else if (*field == "max_nodes") {
        topo.max_nodes = static_cast<std::uint32_t>(*v);
      } else {
        throw std::runtime_error("scenario: unknown key: " + std::string(key));
      }
      config.system.nodes = platform::Topology(topo).node_count();
      continue;
    }
    if (const auto cause_name = util::strip_prefix(key, "cause_weights.")) {
      bool found = false;
      for (std::size_t i = 0; i < logmodel::kRootCauseCount; ++i) {
        if (to_string(static_cast<logmodel::RootCause>(i)) == *cause_name) {
          const auto v = util::parse_double(value);
          if (!v || *v < 0.0) throw bad_value();
          config.failures.cause_weights[i] = *v;
          found = true;
          break;
        }
      }
      if (!found) {
        throw std::runtime_error("scenario: unknown cause: " + std::string(*cause_name));
      }
      continue;
    }

    bool matched = false;
    for (const auto& dk : double_keys()) {
      if (key == dk.name) {
        const auto v = util::parse_double(value);
        if (!v) throw bad_value();
        dk.set(config) = *v;
        matched = true;
        break;
      }
    }
    if (!matched) {
      throw std::runtime_error("scenario: unknown key: " + std::string(key));
    }
  }
}

ScenarioConfig scenario_from_string(const std::string& text) {
  // First pass: find the system/days/seed so the preset is right before
  // overrides land on top.
  platform::SystemName system = platform::SystemName::S1;
  bool system_seen = false;
  int days = 7;
  std::uint64_t seed = 42;
  for (const auto raw_line : util::split(text, '\n')) {
    const auto line = util::trim(raw_line);
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    const auto key = util::trim(line.substr(0, eq));
    const auto value = util::trim(line.substr(eq + 1));
    if (key == "system") {
      const auto name = platform::system_from_string(value);
      if (name) {
        system = *name;
        system_seen = true;
      }
    } else if (key == "days") {
      days = static_cast<int>(util::parse_i64(value).value_or(days));
    } else if (key == "seed") {
      seed = util::parse_u64(value).value_or(seed);
    }
  }
  if (!system_seen) throw std::runtime_error("scenario: missing 'system = S1..S5'");
  ScenarioConfig config = scenario_preset(system, days, seed);
  apply_scenario_overrides(config, text);
  return config;
}

}  // namespace hpcfail::faultsim
