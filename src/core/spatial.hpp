// Spatial failure structure: attribution of failures to "faulty" blades and
// cabinets (Fig 7) and the same-reason fraction of whole-blade failures
// (Fig 18, Observation 8).
#pragma once

#include <vector>

#include "core/root_cause.hpp"
#include "logmodel/log_store.hpp"
#include "platform/ids.hpp"

namespace hpcfail::core {

struct SpatialAttribution {
  std::size_t failures = 0;
  std::size_t on_faulty_blade = 0;
  std::size_t on_faulty_cabinet = 0;
  [[nodiscard]] double blade_fraction() const noexcept {
    return failures ? static_cast<double>(on_faulty_blade) / static_cast<double>(failures)
                    : 0.0;
  }
  [[nodiscard]] double cabinet_fraction() const noexcept {
    return failures ? static_cast<double>(on_faulty_cabinet) / static_cast<double>(failures)
                    : 0.0;
  }
};

struct BladeFailureGroup {
  platform::BladeId blade;
  std::int64_t day = 0;
  std::size_t failures = 0;
  logmodel::RootCause dominant = logmodel::RootCause::Unknown;
  bool same_reason = false;  ///< all failures in the group share the cause
};

class SpatialAnalyzer {
 public:
  explicit SpatialAnalyzer(const logmodel::LogStore& store) : store_(store) {}

  /// Fig 7: how many failures sit on blades/cabinets that showed controller
  /// faults or warnings around the failure time.
  [[nodiscard]] SpatialAttribution attribute(
      const std::vector<AnalyzedFailure>& failures, util::TimePoint begin,
      util::TimePoint end) const;

  /// Fig 18: per (blade, day) groups with >= min_failures failures, do the
  /// failures share the same inferred root cause?
  [[nodiscard]] std::vector<BladeFailureGroup> blade_groups(
      const std::vector<AnalyzedFailure>& failures, std::size_t min_failures = 2) const;

  /// Fraction of groups with same_reason (0 when no groups).
  [[nodiscard]] static double same_reason_fraction(
      const std::vector<BladeFailureGroup>& groups) noexcept;

 private:
  [[nodiscard]] bool blade_faulty_near(platform::BladeId blade, util::TimePoint t) const;
  [[nodiscard]] bool cabinet_faulty_near(platform::CabinetId cabinet, util::TimePoint t) const;

  const logmodel::LogStore& store_;
};

}  // namespace hpcfail::core
