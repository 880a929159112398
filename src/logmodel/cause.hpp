// Root-cause taxonomy shared by the fault injector (ground truth) and the
// analysis pipeline (inference output).  The classes follow Sections III-E/F
// and Fig 16 of the paper; the coarse rollup matches the S3 shares quoted in
// Section III-F (hardware / software / application).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace hpcfail::logmodel {

enum class RootCause : std::uint8_t {
  HardwareMce,       ///< fail-stop MCE / CPU corruption
  FailSlowHardware,  ///< degraded hardware with external early indicators
  KernelBug,         ///< job-triggered kernel bug (invalid opcode, CPU stall)
  LustreBug,         ///< file system bug (mostly application-triggered)
  MemoryExhaustion,  ///< OOM-driven failure
  AppAbnormalExit,   ///< NHC-detected abnormal application exit -> admindown
  BiosUnknown,       ///< "type:2; severity:80" pattern; cause never inferred
  L0SysdMceUnknown,  ///< L0_sysd_mce pattern; cause never inferred
  OperatorError,     ///< manual shutdown of a good node
  Unknown,           ///< analyzer verdict when evidence is insufficient
  kCount
};

inline constexpr std::size_t kRootCauseCount = static_cast<std::size_t>(RootCause::kCount);

/// Weights over root causes (used by scenario configs).
using CauseMix = std::array<double, kRootCauseCount>;

/// Coarse rollup used by the S3 share analysis (Section III-F).
enum class CauseLayer : std::uint8_t { Hardware, Software, Application, Unknown };

[[nodiscard]] constexpr CauseLayer layer_of(RootCause c) noexcept {
  switch (c) {
    case RootCause::HardwareMce:
    case RootCause::FailSlowHardware:
      return CauseLayer::Hardware;
    case RootCause::KernelBug:
    case RootCause::LustreBug:
      return CauseLayer::Software;
    case RootCause::MemoryExhaustion:
    case RootCause::AppAbnormalExit:
      return CauseLayer::Application;
    default:
      return CauseLayer::Unknown;
  }
}

/// True when the failure chain originates in the running application, even
/// if it manifests inside the kernel or file system (Observation 7).
[[nodiscard]] constexpr bool is_application_triggered(RootCause c) noexcept {
  switch (c) {
    case RootCause::KernelBug:
    case RootCause::LustreBug:
    case RootCause::MemoryExhaustion:
    case RootCause::AppAbnormalExit:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] constexpr std::string_view to_string(RootCause c) noexcept {
  switch (c) {
    case RootCause::HardwareMce: return "HardwareMce";
    case RootCause::FailSlowHardware: return "FailSlowHardware";
    case RootCause::KernelBug: return "KernelBug";
    case RootCause::LustreBug: return "LustreBug";
    case RootCause::MemoryExhaustion: return "MemoryExhaustion";
    case RootCause::AppAbnormalExit: return "AppAbnormalExit";
    case RootCause::BiosUnknown: return "BiosUnknown";
    case RootCause::L0SysdMceUnknown: return "L0SysdMceUnknown";
    case RootCause::OperatorError: return "OperatorError";
    case RootCause::Unknown: return "Unknown";
    case RootCause::kCount: break;
  }
  return "?";
}

}  // namespace hpcfail::logmodel
