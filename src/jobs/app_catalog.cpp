#include "jobs/app_catalog.hpp"

#include <stdexcept>

namespace hpcfail::jobs {

AppCatalog AppCatalog::standard() {
  std::vector<AppProfile> apps;
  // Benign, popular production codes: nearly all runs complete.
  apps.push_back({.name = "namd",       .popularity = 10, .mem_hunger_gb = 12,
                  .p_oom = 0.001, .p_fs_bug = 0.001, .p_kernel_bug = 0.0005,
                  .p_abnormal_exit = 0.002, .p_nonzero_exit = 0.015, .p_config_error = 0.008});
  apps.push_back({.name = "lammps",     .popularity = 9,  .mem_hunger_gb = 10,
                  .p_oom = 0.001, .p_fs_bug = 0.001, .p_kernel_bug = 0.0005,
                  .p_abnormal_exit = 0.002, .p_nonzero_exit = 0.015, .p_config_error = 0.008});
  apps.push_back({.name = "wrf",        .popularity = 7,  .mem_hunger_gb = 24,
                  .p_oom = 0.004, .p_fs_bug = 0.003, .p_kernel_bug = 0.001,
                  .p_abnormal_exit = 0.004, .p_nonzero_exit = 0.02, .p_config_error = 0.01});
  apps.push_back({.name = "vasp",       .popularity = 8,  .mem_hunger_gb = 28,
                  .p_oom = 0.005, .p_fs_bug = 0.002, .p_kernel_bug = 0.001,
                  .p_abnormal_exit = 0.004, .p_nonzero_exit = 0.02, .p_config_error = 0.01});
  apps.push_back({.name = "qe",         .popularity = 5,  .mem_hunger_gb = 20,
                  .p_oom = 0.003, .p_fs_bug = 0.002, .p_kernel_bug = 0.001,
                  .p_abnormal_exit = 0.003, .p_nonzero_exit = 0.02, .p_config_error = 0.01});
  // Risky codes: IO-heavy (Lustre contention), memory-hungry (OOM chains)
  // and one buggy in-development code (kernel-path bugs).
  apps.push_back({.name = "hydro_io",   .popularity = 3,  .mem_hunger_gb = 30,
                  .p_oom = 0.01,  .p_fs_bug = 0.05,  .p_kernel_bug = 0.004,
                  .p_abnormal_exit = 0.02, .p_nonzero_exit = 0.03, .p_config_error = 0.012});
  apps.push_back({.name = "genomics_mem", .popularity = 2, .mem_hunger_gb = 58,
                  .p_oom = 0.07,  .p_fs_bug = 0.01,  .p_kernel_bug = 0.002,
                  .p_abnormal_exit = 0.03, .p_nonzero_exit = 0.04, .p_config_error = 0.02});
  apps.push_back({.name = "devcode_x",  .popularity = 1,  .mem_hunger_gb = 16,
                  .p_oom = 0.02,  .p_fs_bug = 0.02,  .p_kernel_bug = 0.03,
                  .p_abnormal_exit = 0.06, .p_nonzero_exit = 0.08, .p_config_error = 0.03});
  apps.push_back({.name = "matlab_batch", .popularity = 2, .mem_hunger_gb = 40,
                  .p_oom = 0.03,  .p_fs_bug = 0.003, .p_kernel_bug = 0.001,
                  .p_abnormal_exit = 0.02, .p_nonzero_exit = 0.05, .p_config_error = 0.025});
  return AppCatalog(std::move(apps));
}

AppCatalog::AppCatalog(std::vector<AppProfile> apps) : apps_(std::move(apps)) {
  if (apps_.empty()) throw std::invalid_argument("AppCatalog: empty");
  weights_.reserve(apps_.size());
  for (const auto& a : apps_) weights_.push_back(a.popularity);
}

const AppProfile& AppCatalog::sample(util::Rng& rng) const {
  return apps_[rng.weighted_index(weights_)];
}

}  // namespace hpcfail::jobs
