// System presets mirroring Table I of the paper: five clusters S1-S5 with
// their interconnect, scheduler, file system, processors and node counts.
// The presets parameterize both the simulator (which system's failure
// profile to synthesize) and the Table I bench.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "platform/topology.hpp"

namespace hpcfail::platform {

enum class SystemName { S1, S2, S3, S4, S5 };

enum class SchedulerKind { Slurm, Torque };
enum class InterconnectKind { AriesDragonfly, GeminiTorus, Infiniband };
enum class FileSystemKind { Lustre, LocalFs };

struct SystemConfig {
  SystemName name = SystemName::S1;
  std::string label;          ///< "S1".."S5"
  std::string machine_type;   ///< e.g. "Cray XC30"
  int duration_months = 10;   ///< span of the paper's log window
  double log_size_gb = 0.0;   ///< size of the paper's corpus (Table I)
  std::uint32_t nodes = 0;    ///< populated compute nodes
  InterconnectKind interconnect = InterconnectKind::AriesDragonfly;
  SchedulerKind scheduler = SchedulerKind::Slurm;
  FileSystemKind filesystem = FileSystemKind::Lustre;
  std::string os;             ///< "SuSE", "CLE", "RedHat"
  std::string processors;     ///< "IvyBridge", "Haswell", ...
  bool has_gpus = false;
  bool has_burst_buffer = false;

  TopologyConfig topology;

  [[nodiscard]] std::string interconnect_name() const;
  [[nodiscard]] std::string scheduler_name() const;
  [[nodiscard]] std::string filesystem_name() const;
};

/// Returns the Table I preset for a system.
[[nodiscard]] SystemConfig system_preset(SystemName name);

/// All five presets in order.
[[nodiscard]] std::vector<SystemConfig> all_system_presets();

[[nodiscard]] std::string to_string(SystemName name);

/// Inverse of to_string(SystemName): "S1".."S5", nullopt for anything else.
[[nodiscard]] std::optional<SystemName> system_from_string(std::string_view label);

}  // namespace hpcfail::platform
