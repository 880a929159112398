// Synthetic workload generation: Poisson job arrivals, heavy-tailed sizes
// and durations, app sampling from the catalog, and node placement through
// the allocator.  The generator only decides *what runs where and when*;
// outcomes are provisional (Completed / benign errors) until the fault
// simulator overlays failure chains.
#pragma once

#include <cstdint>
#include <vector>

#include "jobs/allocator.hpp"
#include "jobs/app_catalog.hpp"
#include "jobs/job.hpp"
#include "platform/topology.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hpcfail::jobs {

struct WorkloadConfig {
  double arrivals_per_hour = 40.0;
  /// Weights over size classes {1, 2-4, 8-32, 64-256, 512-2048} nodes.
  std::vector<double> size_class_weights = {30, 25, 25, 15, 5};
  double duration_lognorm_mu = 4.0;     ///< ln(minutes); e^4 ~ 55 min median
  double duration_lognorm_sigma = 1.1;
  double blade_packed_fraction = 0.55;  ///< remainder scattered
  util::Duration default_walltime = util::Duration::hours(12);
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(const platform::Topology& topo, AppCatalog catalog,
                    WorkloadConfig config, util::Rng rng);

  /// Generates jobs with start times in [begin, end), sorted by start.
  /// Provisional outcomes cover only scheduler-side phenomena (benign
  /// non-zero exits, configuration errors, user cancels) per the catalog.
  [[nodiscard]] std::vector<Job> generate(util::TimePoint begin, util::TimePoint end);

 private:
  [[nodiscard]] std::uint32_t sample_size(util::Rng& rng) const;

  const platform::Topology& topo_;
  AppCatalog catalog_;
  WorkloadConfig config_;
  util::Rng rng_;
  std::int64_t next_job_id_ = 100000;
};

}  // namespace hpcfail::jobs
