// SEDC (System Environmental Data Collections) sensor simulation.
//
// Each blade carries temperature / voltage / fan-speed / air-velocity
// sensors modelled as mean-reverting Ornstein-Uhlenbeck processes.  The
// cabinet controller samples them periodically and emits ec_sedc_warnings
// when a reading leaves its allowed band — exactly the signal population
// the paper shows to be mostly benign (Figs 8-11, Observation 3).
#pragma once

#include <array>
#include <cstdint>

#include "util/rng.hpp"

namespace hpcfail::sensors {

enum class SensorKind : std::uint8_t {
  CpuTemperature,  ///< deg C, nominal ~40
  Voltage,         ///< V, nominal ~12
  FanSpeed,        ///< RPM, nominal ~3000
  AirVelocity,     ///< m/s, nominal ~2.5
  kCount
};

inline constexpr std::size_t kSensorKindCount = static_cast<std::size_t>(SensorKind::kCount);

/// Mean-reverting process: dX = reversion * (mean - X) dt + sigma dW.
struct OuProcess {
  double mean = 0.0;
  double reversion = 0.1;  ///< per-minute pull toward the mean
  double sigma = 1.0;      ///< per-sqrt(minute) diffusion
  double value = 0.0;

  /// Advances by dt_minutes using exact OU discretization.
  double step(util::Rng& rng, double dt_minutes) noexcept;
};

struct SensorSpec {
  SensorKind kind = SensorKind::CpuTemperature;
  double nominal = 0.0;
  double sigma = 1.0;
  double reversion = 0.2;
  double warn_low = 0.0;   ///< below: SEDC low warning
  double warn_high = 0.0;  ///< above: SEDC high warning
};

/// Paper-calibrated default spec per sensor kind (temperature ~40 C steady,
/// per Fig 11).
[[nodiscard]] SensorSpec default_spec(SensorKind kind) noexcept;

/// The sensors of one blade. Blades are healthy or "deviant" (persistent
/// benign threshold violations, the Fig 9 warning storms).
class BladeSensors {
 public:
  BladeSensors() = default;
  BladeSensors(util::Rng rng, bool deviant);

  /// Advances all sensors by dt_minutes and returns the new readings.
  void step(double dt_minutes) noexcept;

  [[nodiscard]] double reading(SensorKind k) const noexcept {
    return state_[static_cast<std::size_t>(k)].value;
  }

  /// True when the current reading is outside [warn_low, warn_high].
  [[nodiscard]] bool violates(SensorKind k) const noexcept;

  [[nodiscard]] bool deviant() const noexcept { return deviant_; }

 private:
  util::Rng rng_{};
  std::array<SensorSpec, kSensorKindCount> specs_{};
  std::array<OuProcess, kSensorKindCount> state_{};
  bool deviant_ = false;
};

}  // namespace hpcfail::sensors
