// Event taxonomy for the three log universes the paper correlates:
//   internal  - compute-node console/messages/consumer logs,
//   external  - blade/cabinet controller and event-router (ERD) logs,
//   job       - scheduler (Slurm/Torque/ALPS) logs.
// The taxonomy follows Table III of the paper (health faults vs SEDC
// warnings) plus the internal failure indicators of Sections III-E/F.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace hpcfail::logmodel {

enum class EventType : std::uint8_t {
  // --- internal: kernel / hardware ---
  KernelPanic,            ///< fatal; node is lost
  KernelOops,             ///< oops with call trace; often fatal
  MachineCheckException,  ///< H/W MCE (page/cache/DIMM threshold exceeded)
  HardwareError,          ///< correctable/uncorrectable memory, buffer overflow
  CpuCorruption,          ///< processor corruption report
  CpuStall,               ///< RCU/CPU stall warnings
  BiosError,              ///< "type:2; severity:80; ..." pattern (unknown cause)
  L0SysdMce,              ///< blade-controller-reported MCE (unknown cause)
  FirmwareBug,            ///< firmware bug report
  DriverBug,              ///< driver bug report
  // --- internal: software / kernel ---
  SegFault,               ///< segfault in an application process
  InvalidOpcode,          ///< software trap
  PageAllocationFailure,  ///< page allocation failure (memory pressure)
  OomKill,                ///< oom-killer invoked, process killed
  HungTaskTimeout,        ///< "task blocked for more than 120 seconds"
  CallTrace,              ///< a stack-backtrace frame (module in text)
  // --- internal: file system / interconnect ---
  LustreError,            ///< Lustre I/O error (deadlock, page-fault lock)
  LustreBug,              ///< LBUG / Lustre assertion
  DvsError,               ///< DVS (dvsipc) error
  InodeError,             ///< disk/job induced inode errors
  InterconnectError,      ///< Aries/Gemini/IB link error seen by the node
  // --- internal: lifecycle / health ---
  NhcTestFail,            ///< node health checker test failed
  AppExitAbnormal,        ///< NHC-reported abnormal application exit
  NodeShutdown,           ///< clean or anomalous shutdown message
  NodeHalt,               ///< node declared down/admindown
  NodeBoot,               ///< node (re)booted
  // --- external: health faults (Table III col 1) ---
  NodeHeartbeatFault,     ///< NHF: node skipped heartbeats / failed health test
  NodeVoltageFault,       ///< NVF
  BladeHeartbeatFault,    ///< BCHF: blade controller heartbeat fault
  EcHeartbeatStop,        ///< ec_heartbeat_stop event
  EcL0Failed,             ///< ec_l0_failed event
  EcHwError,              ///< ec_hw_error: hardware malfunction alert
  GetSensorReadingFailed, ///< controller could not read a sensor
  CabinetPowerFault,      ///< cabinet power / micro-controller fault
  CabinetMicroFault,      ///< cabinet micro-controller fault
  CommunicationFault,     ///< controller communication fault
  ModuleHealthFault,      ///< module health fault
  RpmFault,               ///< fan RPM fault
  EcbFault,               ///< electronic circuit breaker fault (power)
  CabinetSensorCheck,     ///< cabinet sensor check fault
  LinkError,              ///< HSN link error reported by the controller
  LaneDegrade,            ///< HSN lane degraded (bandwidth reduced)
  LinkFailover,           ///< traffic re-routed around a failed link
  LinkFailoverFailed,     ///< failover did not complete; nodes see errors
  // --- external: SEDC warnings (Table III col 2) ---
  SedcTemperatureWarning, ///< temperature outside allowed band
  SedcVoltageWarning,     ///< voltage outside allowed band
  SedcAirVelocityWarning, ///< air velocity below minimum
  SedcFanSpeedWarning,    ///< ec_environment fan speed / air flow warning
  SedcReading,            ///< periodic sensor sample (value attr)
  // --- job / scheduler ---
  JobStart,
  JobEnd,                 ///< exit code in attr
  JobCancelled,           ///< user / interactive cancellation
  JobOverallocation,      ///< scheduler allocated more memory than available
  EpilogueRun,            ///< scheduler epilogue cleaned the node
  NhcSuspectMode,         ///< NHC placed node in suspect mode

  kCount
};

inline constexpr std::size_t kEventTypeCount = static_cast<std::size_t>(EventType::kCount);

enum class Severity : std::uint8_t { Info, Warning, Error, Critical, Fatal };

enum class LogSource : std::uint8_t {
  Console,    ///< p0 console log
  Messages,   ///< p0 messages (syslog)
  Consumer,   ///< p0 consumer log
  Controller, ///< blade/cabinet controller log
  Erd,        ///< event router daemon log
  Scheduler,  ///< slurmctld / torque server log
  kCount
};

inline constexpr std::size_t kLogSourceCount = static_cast<std::size_t>(LogSource::kCount);

/// True for external events in the "health fault" column of Table III.
[[nodiscard]] bool is_health_fault(EventType t) noexcept;

/// True for external events in the "SEDC warning" column of Table III.
[[nodiscard]] bool is_sedc_warning(EventType t) noexcept;

/// Internal events that on their own indicate the node has failed
/// (ground-truth markers the failure detector keys on).
[[nodiscard]] bool is_failure_marker(EventType t) noexcept;

/// Internal events that are fault-indicative precursors (define the start
/// of the internal lead-time window).
[[nodiscard]] bool is_internal_indicator(EventType t) noexcept;

/// External events usable as early indicators for lead-time enhancement.
[[nodiscard]] bool is_external_indicator(EventType t) noexcept;

[[nodiscard]] std::string_view to_string(EventType t) noexcept;
[[nodiscard]] std::string_view to_string(LogSource s) noexcept;

/// Event-router name of `t`, the `ev=` field of erd.log (e.g.
/// "ec_node_failed"); "ec_event" for types outside the ERD vocabulary.
[[nodiscard]] std::string_view erd_event_name(EventType t) noexcept;

/// Inverse of erd_event_name over the ERD vocabulary; nullopt for
/// "ec_event" and any other unknown name.
[[nodiscard]] std::optional<EventType> erd_event_type(std::string_view name) noexcept;

}  // namespace hpcfail::logmodel
