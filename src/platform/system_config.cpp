#include "platform/system_config.hpp"

#include <stdexcept>

namespace hpcfail::platform {

std::string SystemConfig::interconnect_name() const {
  switch (interconnect) {
    case InterconnectKind::AriesDragonfly: return "Aries Dragonfly";
    case InterconnectKind::GeminiTorus: return "Gemini Torus";
    case InterconnectKind::Infiniband: return "Infiniband";
  }
  return "?";
}

std::string SystemConfig::scheduler_name() const {
  return scheduler == SchedulerKind::Slurm ? "Slurm" : "Torque";
}

std::string SystemConfig::filesystem_name() const {
  return filesystem == FileSystemKind::Lustre ? "Lustre" : "Local";
}

std::string to_string(SystemName name) {
  switch (name) {
    case SystemName::S1: return "S1";
    case SystemName::S2: return "S2";
    case SystemName::S3: return "S3";
    case SystemName::S4: return "S4";
    case SystemName::S5: return "S5";
  }
  return "?";
}

std::optional<SystemName> system_from_string(std::string_view label) {
  for (const auto name : {SystemName::S1, SystemName::S2, SystemName::S3, SystemName::S4,
                          SystemName::S5}) {
    if (to_string(name) == label) return name;
  }
  return std::nullopt;
}

namespace {

/// Smallest cabinet grid (as square as possible) covering `nodes` nodes for
/// a Cray XC-style cabinet (3 chassis x 16 slots x 4 nodes = 192).
TopologyConfig cray_topology(std::uint32_t nodes) {
  TopologyConfig t;
  t.chassis_per_cabinet = 3;
  t.slots_per_chassis = 16;
  t.nodes_per_slot = 4;
  const std::uint32_t per_cabinet = 3u * 16u * 4u;
  const std::uint32_t cabinets = (nodes + per_cabinet - 1) / per_cabinet;
  // Rows of up to 12 cabinets, mirroring typical machine-room layouts.
  t.cabinet_cols = static_cast<int>(std::min<std::uint32_t>(cabinets, 12));
  t.cabinet_rows =
      static_cast<int>((cabinets + static_cast<std::uint32_t>(t.cabinet_cols) - 1) /
                       static_cast<std::uint32_t>(t.cabinet_cols));
  t.max_nodes = nodes;
  t.naming = NamingScheme::CrayCname;
  return t;
}

/// Institutional cluster: racks of 2 "chassis" x 20 slots x 1 node.
TopologyConfig institutional_topology(std::uint32_t nodes) {
  TopologyConfig t;
  t.chassis_per_cabinet = 2;
  t.slots_per_chassis = 20;
  t.nodes_per_slot = 1;
  const std::uint32_t per_rack = 2u * 20u;
  const std::uint32_t racks = (nodes + per_rack - 1) / per_rack;
  t.cabinet_cols = static_cast<int>(std::min<std::uint32_t>(racks, 8));
  t.cabinet_rows = static_cast<int>((racks + static_cast<std::uint32_t>(t.cabinet_cols) - 1) /
                                    static_cast<std::uint32_t>(t.cabinet_cols));
  t.max_nodes = nodes;
  t.naming = NamingScheme::Hostname;
  return t;
}

}  // namespace

SystemConfig system_preset(SystemName name) {
  SystemConfig c;
  c.name = name;
  c.label = to_string(name);
  switch (name) {
    case SystemName::S1:
      c.machine_type = "Cray XC30";
      c.duration_months = 10;
      c.log_size_gb = 37.3;
      c.nodes = 5600;
      c.interconnect = InterconnectKind::AriesDragonfly;
      c.scheduler = SchedulerKind::Slurm;
      c.filesystem = FileSystemKind::Lustre;
      c.os = "SuSE";
      c.processors = "IvyBridge";
      c.topology = cray_topology(c.nodes);
      break;
    case SystemName::S2:
      c.machine_type = "Cray XE6";
      c.duration_months = 12;
      c.log_size_gb = 150.0;
      c.nodes = 6400;
      c.interconnect = InterconnectKind::GeminiTorus;
      c.scheduler = SchedulerKind::Torque;
      c.filesystem = FileSystemKind::Lustre;
      c.os = "CLE";
      c.processors = "IvyBridge";
      c.topology = cray_topology(c.nodes);
      break;
    case SystemName::S3:
      c.machine_type = "Cray XC40";
      c.duration_months = 8;
      c.log_size_gb = 39.6;
      c.nodes = 2100;
      c.interconnect = InterconnectKind::AriesDragonfly;
      c.scheduler = SchedulerKind::Slurm;
      c.filesystem = FileSystemKind::Lustre;
      c.os = "SuSE";
      c.processors = "Haswell";
      c.has_burst_buffer = true;
      c.topology = cray_topology(c.nodes);
      break;
    case SystemName::S4:
      c.machine_type = "Cray XC40/XC30";
      c.duration_months = 10;
      c.log_size_gb = 22.8;
      c.nodes = 1872;
      c.interconnect = InterconnectKind::AriesDragonfly;
      c.scheduler = SchedulerKind::Torque;
      c.filesystem = FileSystemKind::Lustre;
      c.os = "CLE";
      c.processors = "Haswell/IvyBridge";
      c.has_burst_buffer = true;
      c.topology = cray_topology(c.nodes);
      break;
    case SystemName::S5:
      c.machine_type = "Institutional";
      c.duration_months = 1;
      c.log_size_gb = 3.1;
      c.nodes = 520;
      c.interconnect = InterconnectKind::Infiniband;
      c.scheduler = SchedulerKind::Slurm;
      c.filesystem = FileSystemKind::LocalFs;
      c.os = "RedHat";
      c.processors = "Haswell";
      c.has_gpus = true;
      c.topology = institutional_topology(c.nodes);
      break;
  }
  return c;
}

std::vector<SystemConfig> all_system_presets() {
  return {system_preset(SystemName::S1), system_preset(SystemName::S2),
          system_preset(SystemName::S3), system_preset(SystemName::S4),
          system_preset(SystemName::S5)};
}

}  // namespace hpcfail::platform
