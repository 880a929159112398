#include "core/root_cause.hpp"

#include <algorithm>

namespace hpcfail::core {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogStore;
using logmodel::RootCause;

namespace {

/// External indicators are searched this far before the failure.
constexpr util::Duration kExternalLookback = util::Duration::minutes(60);

}  // namespace

void add_evidence(Evidence& ev, EventType type, std::string_view detail) {
  switch (type) {
    case EventType::MachineCheckException: ev.mce = true; break;
    case EventType::HardwareError: ev.hw_error = true; break;
    case EventType::CpuCorruption: ev.cpu_corruption = true; break;
    case EventType::OomKill: ev.oom = true; break;
    case EventType::PageAllocationFailure: ev.page_alloc_failure = true; break;
    case EventType::LustreError: ev.lustre_error = true; break;
    case EventType::LustreBug: ev.lustre_bug = true; break;
    case EventType::DvsError: ev.dvs_error = true; break;
    case EventType::KernelOops: ev.kernel_oops = true; break;
    case EventType::InvalidOpcode: ev.invalid_opcode = true; break;
    case EventType::CpuStall: ev.cpu_stall = true; break;
    case EventType::SegFault: ev.seg_fault = true; break;
    case EventType::NhcTestFail: ev.nhc_test_fail = true; break;
    case EventType::AppExitAbnormal: ev.app_exit_abnormal = true; break;
    case EventType::BiosError: ev.bios_error = true; break;
    case EventType::L0SysdMce: ev.l0_sysd_mce = true; break;
    case EventType::CallTrace: ev.stack_modules.emplace_back(detail); break;
    case EventType::EcHwError: ev.ec_hw_errors = true; break;
    case EventType::LinkError: ev.link_errors = true; break;
    case EventType::NodeVoltageFault: ev.node_voltage_fault = true; break;
    case EventType::SedcVoltageWarning: ev.sedc_voltage = true; break;
    default: break;
  }
}

Evidence RootCauseEngine::collect_evidence(const LogStore& store, const FailureEvent& failure,
                                           const jobs::JobTable* jobs) const {
  Evidence ev;
  const util::TimePoint t = failure.time;

  // Internal window on the failing node.  External indicators count only
  // in the blade window below.
  for (const std::uint32_t idx :
       store.node_range(failure.node, t - kInternalLookback,
                        t + util::Duration::minutes(1))) {
    const LogRecord& r = store[idx];
    if (!logmodel::is_external_indicator(r.type)) add_evidence(ev, r.type, store.detail(r));
  }

  // External window: node-scoped and blade-scoped indicators.
  const util::TimePoint ext_begin = t - kExternalLookback;
  for (const std::uint32_t idx :
       store.blade_range(failure.blade, ext_begin, t + util::Duration::minutes(1))) {
    const LogRecord& r = store[idx];
    // Node-scoped indicators must match the failing node; blade-scoped
    // ones apply to every node of the blade.
    if (r.has_node() && r.node != failure.node) continue;
    if (logmodel::is_external_indicator(r.type)) add_evidence(ev, r.type, {});
  }

  ev.job_attributed = failure.job_id != logmodel::kNoJob;
  if (!ev.job_attributed && jobs != nullptr) {
    ev.job_attributed =
        jobs->job_on_node_at(failure.node, t, util::Duration::minutes(3)) != nullptr;
  }
  return ev;
}

namespace {
bool has_module(const Evidence& ev, std::string_view needle) {
  return std::any_of(ev.stack_modules.begin(), ev.stack_modules.end(),
                     [needle](const std::string& m) {
                       return m.find(needle) != std::string::npos;
                     });
}
}  // namespace

Inference RootCauseEngine::infer(const Evidence& ev, EventType marker) const {
  Inference out;
  out.evidence = ev;

  const bool hardware_signals = ev.mce || ev.cpu_corruption || has_module(ev, "mce_log");
  const bool external_signals = ev.ec_hw_errors || ev.node_voltage_fault ||
                                (ev.link_errors && ev.sedc_voltage);
  const bool memory_signals = ev.oom || ev.page_alloc_failure || has_module(ev, "xpmem");
  const bool lustre_signals =
      ev.lustre_bug || has_module(ev, "ldlm") || has_module(ev, "dvs_ipc") ||
      (ev.lustre_error && ev.kernel_oops);
  const bool kernel_bug_signals =
      ev.invalid_opcode || ev.cpu_stall || has_module(ev, "rwsem");

  // Ordered rules: fault ORIGIN wins over manifestation (Observation 7).
  if (memory_signals) {
    out.cause = RootCause::MemoryExhaustion;
    out.confidence = ev.oom ? 0.9 : 0.6;
    out.application_triggered = true;
    out.rationale = "oom-killer/page-allocation chain; memory exhausted by the job";
  } else if (ev.l0_sysd_mce && !hardware_signals && !lustre_signals) {
    out.cause = RootCause::L0SysdMceUnknown;
    out.confidence = 0.4;
    out.rationale = "L0_sysd_mce without corroborating internal evidence";
  } else if (ev.bios_error && !hardware_signals && !lustre_signals && !kernel_bug_signals) {
    out.cause = RootCause::BiosUnknown;
    out.confidence = 0.4;
    out.rationale = "BIOS HEST pattern also seen on healthy nodes; cause unclear";
  } else if (lustre_signals) {
    out.cause = RootCause::LustreBug;
    out.confidence = ev.lustre_bug ? 0.9 : 0.7;
    out.application_triggered = ev.job_attributed;
    out.rationale = "Lustre/DVS assertion with file-system stack modules";
  } else if (hardware_signals) {
    if (external_signals) {
      out.cause = RootCause::FailSlowHardware;
      out.confidence = 0.85;
      out.rationale = "MCE chain with early external ec_hw/voltage indicators (fail-slow)";
    } else {
      out.cause = RootCause::HardwareMce;
      out.confidence = 0.85;
      out.rationale = "machine check chain without external precursors (fail-stop)";
    }
  } else if (kernel_bug_signals) {
    out.cause = RootCause::KernelBug;
    out.confidence = 0.75;
    out.application_triggered = ev.job_attributed;
    out.rationale = "invalid opcode / CPU stall with kernel stack modules";
  } else if (ev.app_exit_abnormal || (ev.nhc_test_fail && marker == EventType::NodeHalt)) {
    out.cause = RootCause::AppAbnormalExit;
    out.confidence = 0.8;
    out.application_triggered = true;
    out.rationale = "NHC abnormal application exit turned node to admindown";
  } else if (marker == EventType::NodeShutdown && !ev.kernel_oops) {
    out.cause = RootCause::OperatorError;
    out.confidence = 0.3;
    out.rationale = "bare shutdown without anomaly symptoms; likely operator action";
  } else {
    out.cause = RootCause::Unknown;
    out.confidence = 0.1;
    out.rationale = "insufficient evidence for causal inference";
  }
  return out;
}

Inference RootCauseEngine::diagnose(const LogStore& store, const FailureEvent& failure,
                                    const jobs::JobTable* jobs) const {
  return infer(collect_evidence(store, failure, jobs), failure.marker);
}

}  // namespace hpcfail::core
