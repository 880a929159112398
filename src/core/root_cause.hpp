// Rule-based root-cause inference over a failure's internal chain, external
// environment window and job context — the paper's "holistic" diagnosis
// (Sections III-E/F, Table IV, Table V).
//
// The engine collects evidence flags from three universes and applies an
// ordered rule list.  Rules are ordered most-specific-first so that, e.g.,
// an OOM chain whose stack trace mentions lustre modules is still classified
// MemoryExhaustion (the fault ORIGIN, per Observation 7), not LustreBug.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/failure_detector.hpp"
#include "logmodel/cause.hpp"
#include "logmodel/log_store.hpp"

namespace hpcfail::core {

struct Evidence {
  // internal
  bool mce = false;
  bool hw_error = false;
  bool cpu_corruption = false;
  bool oom = false;
  bool page_alloc_failure = false;
  bool lustre_error = false;
  bool lustre_bug = false;
  bool dvs_error = false;
  bool kernel_oops = false;
  bool invalid_opcode = false;
  bool cpu_stall = false;
  bool seg_fault = false;
  bool nhc_test_fail = false;
  bool app_exit_abnormal = false;
  bool bios_error = false;
  bool l0_sysd_mce = false;
  std::vector<std::string> stack_modules;  ///< call-trace lead modules, in order
  // external (within the external lookback window, same node or blade)
  bool ec_hw_errors = false;
  bool link_errors = false;
  bool node_voltage_fault = false;
  bool sedc_voltage = false;
  // job
  bool job_attributed = false;
};

/// The one table from event type to evidence: a record of `type` sets the
/// flag it stands for (sixteen internal indicators, four external ones),
/// and a CallTrace frame appends its module text `detail` to
/// stack_modules.  Every other type leaves `ev` unchanged.  Callers pick
/// the window: internal types count on the failing node, external ones on
/// its blade.
void add_evidence(Evidence& ev, logmodel::EventType type, std::string_view detail);

struct Inference {
  logmodel::RootCause cause = logmodel::RootCause::Unknown;
  double confidence = 0.0;  ///< heuristic 0..1
  bool application_triggered = false;
  std::string rationale;    ///< human-readable one-liner
  Evidence evidence;
};

class RootCauseEngine {
 public:
  /// Collects evidence for one failure from the store (and optional jobs).
  [[nodiscard]] Evidence collect_evidence(const logmodel::LogStore& store,
                                          const FailureEvent& failure,
                                          const jobs::JobTable* jobs) const;

  /// Applies the rule list to evidence.
  [[nodiscard]] Inference infer(const Evidence& evidence,
                                logmodel::EventType marker) const;

  /// Convenience: collect + infer.
  [[nodiscard]] Inference diagnose(const logmodel::LogStore& store,
                                   const FailureEvent& failure,
                                   const jobs::JobTable* jobs) const;
};

/// A failure with its diagnosis attached; what all figure analyses consume.
struct AnalyzedFailure {
  FailureEvent event;
  Inference inference;
};

}  // namespace hpcfail::core
