#include "parsers/line_classifier.hpp"

#include <bit>
#include <cstdint>

#include "util/scan.hpp"
#include "util/strings.hpp"

namespace hpcfail::parsers {

using logmodel::EventType;
using logmodel::Severity;
using util::starts_with;
using util::scan::Signature;
using util::scan::SignatureSet;

namespace {

/// Remainder after "<signature>" (and an optional ": ").
std::string_view after(std::string_view payload, std::string_view signature) noexcept {
  const auto pos = payload.find(signature);
  if (pos == std::string_view::npos) return {};
  std::string_view rest = payload.substr(pos + signature.size());
  if (starts_with(rest, ": ")) rest.remove_prefix(2);
  return util::trim(rest);
}

// ---------------------------------------------------------------------------
// Signature tables
//
// Each classifier's cascade is a priority-ordered signature list matched in
// ONE pass over the payload (util::scan::SignatureSet), then resolved
// lowest-priority-bit first — exactly equivalent to the old chain of
// sequential contains()/starts_with() tests, because each test only asked
// whether its literal occurs anywhere (or at the start) of the payload.
// Order still matters where signatures overlap (LBUG before LustreError,
// processor-context-corrupt before generic MCE); keep these tables and
// loggen/renderer.cpp in sync.
// ---------------------------------------------------------------------------

// clang-format off
constexpr Signature kKernelSignatures[] = {
    /*  0 */ {"Kernel panic - not syncing", false},
    /*  1 */ {"LBUG", false},
    /*  2 */ {"LustreError", false},
    /*  3 */ {"processor context corrupt", false},
    /*  4 */ {"Machine check", false},
    /*  5 */ {"EDAC", false},
    /*  6 */ {"rcu_sched self-detected stall", false},
    /*  7 */ {"HEST:", true},
    /*  8 */ {"[Firmware Bug]", false},
    /*  9 */ {"driver bug", false},
    /* 10 */ {"segfault at", false},
    /* 11 */ {"invalid opcode", false},
    /* 12 */ {"page allocation failure", false},
    /* 13 */ {"Out of memory", false},
    /* 14 */ {"blocked for more than", false},
    /* 15 */ {"unable to handle kernel paging request", false},
    /* 16 */ {">] ", false},  // call-trace frame; validated by call_trace_module
    /* 17 */ {"DVS:", true},
    /* 18 */ {"bad inode", false},
    /* 19 */ {"link error detected", false},
    /* 20 */ {"Shutdown: system going down", false},
    /* 21 */ {"System halted", false},
    /* 22 */ {"Booting Linux", false},
};

constexpr Signature kNhcSignatures[] = {
    /* 0 */ {"abnormal", false},
    /* 1 */ {"suspect mode", false},
    /* 2 */ {"NHC:", false},
};

constexpr Signature kControllerSignatures[] = {
    /*  0 */ {"ec_sedc_warning", false},
    /*  1 */ {"ec_environment", false},
    /*  2 */ {"sedc:", true},
    /*  3 */ {"L0_sysd_mce", false},
    /*  4 */ {"cabinet power fault", false},
    /*  5 */ {"micro controller fault", false},
    /*  6 */ {"communication fault", false},
    /*  7 */ {"module health fault", false},
    /*  8 */ {"RPM fault", false},
    /*  9 */ {"ECB fault", false},
    /* 10 */ {"sensor check failed", false},
    /* 11 */ {"get sensor reading failed", false},
    /* 12 */ {"bc heartbeat fault", false},
    // Auxiliary signatures: only consulted when ec_sedc_warning (bit 0)
    // wins, to pick the SEDC warning subtype in the same single pass.
    /* 13 */ {"CPU_TEMP", false},
    /* 14 */ {"VDD", false},
    /* 15 */ {"AIR_VEL", false},
};
// clang-format on

constexpr std::uint32_t kCpuTempBit = 1u << 13;
constexpr std::uint32_t kVddBit = 1u << 14;
constexpr std::uint32_t kAirVelBit = 1u << 15;

// ---------------------------------------------------------------------------
// Resolution: walk the hit mask lowest bit first (cascade priority order)
// and produce the classification for the first signature that stands.
// ---------------------------------------------------------------------------

std::optional<Classified> resolve_kernel(std::string_view payload,
                                         std::uint32_t hits) noexcept {
  while (hits != 0) {
    const int idx = std::countr_zero(hits);
    hits &= hits - 1;
    switch (idx) {
      case 0:
        return Classified{EventType::KernelPanic, Severity::Fatal,
                          after(payload, "not syncing:")};
      case 1:
        return Classified{EventType::LustreBug, Severity::Critical,
                          after(payload, "ASSERTION failed:")};
      case 2:
        return Classified{EventType::LustreError, Severity::Error, after(payload, "11-0:")};
      case 3:
        return Classified{EventType::CpuCorruption, Severity::Critical,
                          after(payload, "corrupt:")};
      case 4:
        return Classified{EventType::MachineCheckException, Severity::Critical,
                          after(payload, "logged:")};
      case 5:
        return Classified{EventType::HardwareError, Severity::Error, after(payload, "MC0:")};
      case 6:
        return Classified{EventType::CpuStall, Severity::Error, after(payload, "CPU:")};
      case 7:
        return Classified{EventType::BiosError, Severity::Error, after(payload, "HEST:")};
      case 8:
        return Classified{EventType::FirmwareBug, Severity::Error,
                          after(payload, "[Firmware Bug]:")};
      case 9:
        return Classified{EventType::DriverBug, Severity::Error,
                          after(payload, "driver bug:")};
      case 10:
        return Classified{EventType::SegFault, Severity::Error, after(payload, "err 4:")};
      case 11:
        return Classified{EventType::InvalidOpcode, Severity::Error, after(payload, "SMP:")};
      case 12: {
        // Rendered as "<detail>, mode:0x4020" with the signature inside detail.
        std::string_view d = payload;
        const auto comma = d.rfind(", mode:");
        if (comma != std::string_view::npos) d = d.substr(0, comma);
        return Classified{EventType::PageAllocationFailure, Severity::Error, util::trim(d)};
      }
      case 13: {
        std::string_view d = payload;
        const auto score = d.rfind(" score ");
        if (score != std::string_view::npos) d = d.substr(0, score);
        return Classified{EventType::OomKill, Severity::Critical, util::trim(d)};
      }
      case 14:
        return Classified{EventType::HungTaskTimeout, Severity::Warning,
                          after(payload, "seconds:")};
      case 15:
        return Classified{EventType::KernelOops, Severity::Critical, std::string_view{}};
      case 16:
        // A ">] " hit is only a call trace when a '+' follows the frame; a
        // failed validation falls through to the remaining signatures,
        // exactly like the old cascade.
        if (const auto module = call_trace_module(payload)) {
          return Classified{EventType::CallTrace, Severity::Error, *module};
        }
        break;
      case 17:
        return Classified{EventType::DvsError, Severity::Error, after(payload, "DVS:")};
      case 18:
        return Classified{EventType::InodeError, Severity::Error,
                          after(payload, "bad inode:")};
      case 19:
        return Classified{EventType::InterconnectError, Severity::Error,
                          after(payload, "detected:")};
      case 20:
        return Classified{EventType::NodeShutdown, Severity::Fatal,
                          after(payload, "going down:")};
      case 21:
        return Classified{EventType::NodeHalt, Severity::Fatal, after(payload, "halted:")};
      case 22:
        return Classified{EventType::NodeBoot, Severity::Info, after(payload, "0x0:")};
      default:
        break;
    }
  }
  return std::nullopt;
}

std::optional<Classified> resolve_nhc(std::string_view payload,
                                      std::uint32_t hits) noexcept {
  if ((hits & 1u) != 0) {
    return Classified{EventType::AppExitAbnormal, Severity::Error, util::trim(payload)};
  }
  if ((hits & 2u) != 0) {
    return Classified{EventType::NhcSuspectMode, Severity::Warning, util::trim(payload)};
  }
  if ((hits & 4u) != 0) {
    return Classified{EventType::NhcTestFail, Severity::Error, util::trim(payload)};
  }
  return std::nullopt;
}

std::optional<Classified> resolve_controller(std::string_view payload,
                                             std::uint32_t hits) noexcept {
  while (hits != 0) {
    const int idx = std::countr_zero(hits);
    hits &= hits - 1;
    switch (idx) {
      case 0:
        if ((hits & kCpuTempBit) != 0) {
          return Classified{EventType::SedcTemperatureWarning, Severity::Warning, payload};
        }
        if ((hits & kVddBit) != 0) {
          return Classified{EventType::SedcVoltageWarning, Severity::Warning, payload};
        }
        if ((hits & kAirVelBit) != 0) {
          return Classified{EventType::SedcAirVelocityWarning, Severity::Warning, payload};
        }
        return Classified{EventType::SedcTemperatureWarning, Severity::Warning, payload};
      case 1:
        return Classified{EventType::SedcFanSpeedWarning, Severity::Warning, payload};
      case 2:
        return Classified{EventType::SedcReading, Severity::Info, after(payload, "sedc:")};
      case 3:
        return Classified{EventType::L0SysdMce, Severity::Error,
                          after(payload, "L0_sysd_mce:")};
      case 4:
        return Classified{EventType::CabinetPowerFault, Severity::Warning, payload};
      case 5:
        return Classified{EventType::CabinetMicroFault, Severity::Warning, payload};
      case 6:
        return Classified{EventType::CommunicationFault, Severity::Warning, payload};
      case 7:
        return Classified{EventType::ModuleHealthFault, Severity::Warning, payload};
      case 8:
        return Classified{EventType::RpmFault, Severity::Warning, payload};
      case 9:
        return Classified{EventType::EcbFault, Severity::Warning, payload};
      case 10:
        return Classified{EventType::CabinetSensorCheck, Severity::Warning, payload};
      case 11:
        return Classified{EventType::GetSensorReadingFailed, Severity::Warning, payload};
      case 12:
        return Classified{EventType::BladeHeartbeatFault, Severity::Warning, payload};
      default:
        // Auxiliary SEDC-subtype bits (13..15) classify nothing on their own.
        break;
    }
  }
  return std::nullopt;
}

const SignatureSet& kernel_set() {
  static const SignatureSet set{kKernelSignatures};
  return set;
}
const SignatureSet& nhc_set() {
  static const SignatureSet set{kNhcSignatures};
  return set;
}
const SignatureSet& controller_set() {
  static const SignatureSet set{kControllerSignatures};
  return set;
}

}  // namespace

std::optional<std::string_view> call_trace_module(std::string_view payload) noexcept {
  // " [<ffffffff81234567>] module+0x1a2/0x400"
  const auto close = payload.find(">] ");
  if (close == std::string_view::npos) return std::nullopt;
  std::string_view rest = payload.substr(close + 3);
  const auto plus = rest.find('+');
  if (plus == std::string_view::npos || plus == 0) return std::nullopt;
  return rest.substr(0, plus);
}

std::optional<Classified> classify_kernel_payload(std::string_view payload) noexcept {
  return resolve_kernel(payload, kernel_set().match(payload));
}

std::optional<Classified> classify_kernel_payload_ref(std::string_view payload) noexcept {
  return resolve_kernel(payload, kernel_set().match_ref(payload));
}

std::optional<Classified> classify_nhc_payload(std::string_view payload) noexcept {
  return resolve_nhc(payload, nhc_set().match(payload));
}

std::optional<Classified> classify_nhc_payload_ref(std::string_view payload) noexcept {
  return resolve_nhc(payload, nhc_set().match_ref(payload));
}

std::optional<Classified> classify_controller_payload(std::string_view payload) noexcept {
  return resolve_controller(payload, controller_set().match(payload));
}

std::optional<Classified> classify_controller_payload_ref(std::string_view payload) noexcept {
  return resolve_controller(payload, controller_set().match_ref(payload));
}

}  // namespace hpcfail::parsers
