#include "logmodel/event_type.hpp"

#include <array>

namespace hpcfail::logmodel {

namespace {

struct ErdEvent {
  EventType type;
  std::string_view name;
};

/// The ERD vocabulary: the renderer emits these names and the ERD parser
/// maps them back.  FORMATS.md's erd section lists the same names
/// (hpcfail-lint's formats-doc check compares the two).
constexpr std::array<ErdEvent, 11> kErdEvents = {{
    {EventType::NodeHeartbeatFault, "ec_node_failed"},
    {EventType::NodeVoltageFault, "ec_node_voltage_fault"},
    {EventType::BladeHeartbeatFault, "ec_bc_heartbeat_fault"},
    {EventType::EcHeartbeatStop, "ec_heartbeat_stop"},
    {EventType::EcL0Failed, "ec_l0_failed"},
    {EventType::EcHwError, "ec_hw_error"},
    {EventType::LinkError, "ec_link_error"},
    {EventType::LaneDegrade, "ec_lane_degrade"},
    {EventType::LinkFailover, "ec_link_failover"},
    {EventType::LinkFailoverFailed, "ec_failover_failed"},
    {EventType::GetSensorReadingFailed, "ec_get_sensor_failed"},
}};

/// One row per type and per name, so the two lookups are inverses.
constexpr bool erd_rows_unique() {
  for (std::size_t i = 0; i < kErdEvents.size(); ++i) {
    for (std::size_t j = i + 1; j < kErdEvents.size(); ++j) {
      if (kErdEvents[i].type == kErdEvents[j].type ||
          kErdEvents[i].name == kErdEvents[j].name) {
        return false;
      }
    }
  }
  return true;
}
static_assert(erd_rows_unique(), "kErdEvents repeats a type or a name");

}  // namespace

bool is_health_fault(EventType t) noexcept {
  switch (t) {
    case EventType::NodeHeartbeatFault:
    case EventType::NodeVoltageFault:
    case EventType::BladeHeartbeatFault:
    case EventType::EcHeartbeatStop:
    case EventType::EcL0Failed:
    case EventType::EcHwError:
    case EventType::GetSensorReadingFailed:
    case EventType::CabinetPowerFault:
    case EventType::CabinetMicroFault:
    case EventType::CommunicationFault:
    case EventType::ModuleHealthFault:
    case EventType::RpmFault:
    case EventType::LinkError:
    case EventType::LinkFailoverFailed:
      return true;
    default:
      return false;
  }
}

bool is_sedc_warning(EventType t) noexcept {
  switch (t) {
    case EventType::SedcTemperatureWarning:
    case EventType::SedcVoltageWarning:
    case EventType::SedcAirVelocityWarning:
    case EventType::SedcFanSpeedWarning:
    case EventType::EcbFault:
    case EventType::CabinetSensorCheck:
      return true;
    default:
      return false;
  }
}

bool is_failure_marker(EventType t) noexcept {
  switch (t) {
    case EventType::KernelPanic:
    case EventType::NodeShutdown:
    case EventType::NodeHalt:
      return true;
    default:
      return false;
  }
}

bool is_internal_indicator(EventType t) noexcept {
  switch (t) {
    case EventType::KernelOops:
    case EventType::MachineCheckException:
    case EventType::HardwareError:
    case EventType::CpuCorruption:
    case EventType::CpuStall:
    case EventType::BiosError:
    case EventType::L0SysdMce:
    case EventType::FirmwareBug:
    case EventType::DriverBug:
    case EventType::SegFault:
    case EventType::InvalidOpcode:
    case EventType::PageAllocationFailure:
    case EventType::OomKill:
    case EventType::HungTaskTimeout:
    case EventType::LustreError:
    case EventType::LustreBug:
    case EventType::DvsError:
    case EventType::InodeError:
    case EventType::InterconnectError:
    case EventType::NhcTestFail:
    case EventType::AppExitAbnormal:
      return true;
    default:
      return false;
  }
}

bool is_external_indicator(EventType t) noexcept {
  switch (t) {
    // The paper's lead-time enhancement keys on ec_hw_errors, link errors,
    // heartbeat/voltage faults and blade-level SEDC deviations that
    // accompany fail-slow hardware (Section III-D).
    case EventType::EcHwError:
    case EventType::LinkError:
    case EventType::NodeHeartbeatFault:
    case EventType::NodeVoltageFault:
    case EventType::SedcVoltageWarning:
      return true;
    default:
      return false;
  }
}

// Each case takes its name from the enumerator's own token, so a name can
// be neither misspelt nor out of order, and -Wswitch flags a dropped type.
#define HPCFAIL_EVENT_NAME(type) \
  case EventType::type: return #type

std::string_view to_string(EventType t) noexcept {
  switch (t) {
    HPCFAIL_EVENT_NAME(KernelPanic);
    HPCFAIL_EVENT_NAME(KernelOops);
    HPCFAIL_EVENT_NAME(MachineCheckException);
    HPCFAIL_EVENT_NAME(HardwareError);
    HPCFAIL_EVENT_NAME(CpuCorruption);
    HPCFAIL_EVENT_NAME(CpuStall);
    HPCFAIL_EVENT_NAME(BiosError);
    HPCFAIL_EVENT_NAME(L0SysdMce);
    HPCFAIL_EVENT_NAME(FirmwareBug);
    HPCFAIL_EVENT_NAME(DriverBug);
    HPCFAIL_EVENT_NAME(SegFault);
    HPCFAIL_EVENT_NAME(InvalidOpcode);
    HPCFAIL_EVENT_NAME(PageAllocationFailure);
    HPCFAIL_EVENT_NAME(OomKill);
    HPCFAIL_EVENT_NAME(HungTaskTimeout);
    HPCFAIL_EVENT_NAME(CallTrace);
    HPCFAIL_EVENT_NAME(LustreError);
    HPCFAIL_EVENT_NAME(LustreBug);
    HPCFAIL_EVENT_NAME(DvsError);
    HPCFAIL_EVENT_NAME(InodeError);
    HPCFAIL_EVENT_NAME(InterconnectError);
    HPCFAIL_EVENT_NAME(NhcTestFail);
    HPCFAIL_EVENT_NAME(AppExitAbnormal);
    HPCFAIL_EVENT_NAME(NodeShutdown);
    HPCFAIL_EVENT_NAME(NodeHalt);
    HPCFAIL_EVENT_NAME(NodeBoot);
    HPCFAIL_EVENT_NAME(NodeHeartbeatFault);
    HPCFAIL_EVENT_NAME(NodeVoltageFault);
    HPCFAIL_EVENT_NAME(BladeHeartbeatFault);
    HPCFAIL_EVENT_NAME(EcHeartbeatStop);
    HPCFAIL_EVENT_NAME(EcL0Failed);
    HPCFAIL_EVENT_NAME(EcHwError);
    HPCFAIL_EVENT_NAME(GetSensorReadingFailed);
    HPCFAIL_EVENT_NAME(CabinetPowerFault);
    HPCFAIL_EVENT_NAME(CabinetMicroFault);
    HPCFAIL_EVENT_NAME(CommunicationFault);
    HPCFAIL_EVENT_NAME(ModuleHealthFault);
    HPCFAIL_EVENT_NAME(RpmFault);
    HPCFAIL_EVENT_NAME(EcbFault);
    HPCFAIL_EVENT_NAME(CabinetSensorCheck);
    HPCFAIL_EVENT_NAME(LinkError);
    HPCFAIL_EVENT_NAME(LaneDegrade);
    HPCFAIL_EVENT_NAME(LinkFailover);
    HPCFAIL_EVENT_NAME(LinkFailoverFailed);
    HPCFAIL_EVENT_NAME(SedcTemperatureWarning);
    HPCFAIL_EVENT_NAME(SedcVoltageWarning);
    HPCFAIL_EVENT_NAME(SedcAirVelocityWarning);
    HPCFAIL_EVENT_NAME(SedcFanSpeedWarning);
    HPCFAIL_EVENT_NAME(SedcReading);
    HPCFAIL_EVENT_NAME(JobStart);
    HPCFAIL_EVENT_NAME(JobEnd);
    HPCFAIL_EVENT_NAME(JobCancelled);
    HPCFAIL_EVENT_NAME(JobOverallocation);
    HPCFAIL_EVENT_NAME(EpilogueRun);
    HPCFAIL_EVENT_NAME(NhcSuspectMode);
    case EventType::kCount: break;
  }
  return "?";
}

#undef HPCFAIL_EVENT_NAME

std::string_view to_string(LogSource s) noexcept {
  switch (s) {
    case LogSource::Console: return "console";
    case LogSource::Messages: return "messages";
    case LogSource::Consumer: return "consumer";
    case LogSource::Controller: return "controller";
    case LogSource::Erd: return "erd";
    case LogSource::Scheduler: return "scheduler";
    case LogSource::kCount: break;
  }
  return "?";
}

std::string_view erd_event_name(EventType t) noexcept {
  for (const auto& e : kErdEvents) {
    if (e.type == t) return e.name;
  }
  return "ec_event";
}

std::optional<EventType> erd_event_type(std::string_view name) noexcept {
  for (const auto& e : kErdEvents) {
    if (e.name == name) return e.type;
  }
  return std::nullopt;
}

}  // namespace hpcfail::logmodel
