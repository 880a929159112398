// Catalog of synthetic scientific applications with per-app risk profiles.
//
// The paper's Observations 6-8 hinge on per-application behaviour: some apps
// exhaust memory, some trigger Lustre contention, most are benign.  The
// catalog encodes those propensities so the fault simulator can make
// failures application-conditional (and therefore spatially scattered but
// temporally clustered under a shared job id).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hpcfail::jobs {

struct AppProfile {
  std::string name;
  double popularity = 1.0;        ///< sampling weight
  double mem_hunger_gb = 16.0;    ///< typical memory request per node
  double p_oom = 0.0;             ///< P(job drives nodes out of memory)
  double p_fs_bug = 0.0;          ///< P(job triggers a Lustre/DVS bug chain)
  double p_kernel_bug = 0.0;      ///< P(job trips a kernel bug / invalid opcode)
  double p_abnormal_exit = 0.0;   ///< P(NHC observes an abnormal app exit)
  double p_nonzero_exit = 0.02;   ///< benign non-zero exits (bad input etc.)
  double p_config_error = 0.01;   ///< wall-time / mem-limit configuration error
};

class AppCatalog {
 public:
  /// Default catalog: a handful of benign solvers plus a small set of
  /// risky applications, calibrated so system-level failure shares land in
  /// the paper's ranges (Figs 15/16, Observation 6).
  static AppCatalog standard();

  explicit AppCatalog(std::vector<AppProfile> apps);

  [[nodiscard]] const AppProfile& sample(util::Rng& rng) const;
  [[nodiscard]] std::span<const AppProfile> apps() const noexcept { return apps_; }

 private:
  std::vector<AppProfile> apps_;
  std::vector<double> weights_;
};

}  // namespace hpcfail::jobs
