#include "sensors/sensor_model.hpp"

#include <algorithm>
#include <cmath>

namespace hpcfail::sensors {

double OuProcess::step(util::Rng& rng, double dt_minutes) noexcept {
  // Exact discretization: X(t+dt) = mean + (X - mean) e^{-a dt} + noise,
  // noise ~ N(0, sigma^2 (1 - e^{-2 a dt}) / (2a)).
  const double a = std::max(1e-9, reversion);
  const double decay = std::exp(-a * dt_minutes);
  const double var = sigma * sigma * (1.0 - decay * decay) / (2.0 * a);
  value = mean + (value - mean) * decay + rng.normal(0.0, std::sqrt(var));
  return value;
}

SensorSpec default_spec(SensorKind kind) noexcept {
  switch (kind) {
    case SensorKind::CpuTemperature:
      // Fig 11: node CPU temperatures sit near 40 C with small spread.
      return {kind, 40.0, 1.2, 0.25, 15.0, 68.0};
    case SensorKind::Voltage:
      return {kind, 12.0, 0.08, 0.30, 11.4, 12.6};
    case SensorKind::FanSpeed:
      return {kind, 3000.0, 60.0, 0.20, 2400.0, 3600.0};
    case SensorKind::AirVelocity:
      return {kind, 2.5, 0.12, 0.20, 1.8, 3.4};
    case SensorKind::kCount:
      break;
  }
  return {};
}

BladeSensors::BladeSensors(util::Rng rng, bool deviant) : rng_(rng), deviant_(deviant) {
  for (std::size_t i = 0; i < kSensorKindCount; ++i) {
    const auto kind = static_cast<SensorKind>(i);
    specs_[i] = default_spec(kind);
    if (deviant_) {
      // A deviant blade sits just outside its low band on one or two
      // environmental sensors — warnings recur all day but nothing fails
      // (the Fig 9 storm blades).
      if (kind == SensorKind::AirVelocity) specs_[i].nominal = specs_[i].warn_low - 0.15;
      if (kind == SensorKind::CpuTemperature) specs_[i].sigma *= 2.0;
    }
    state_[i].mean = specs_[i].nominal;
    state_[i].reversion = specs_[i].reversion;
    state_[i].sigma = specs_[i].sigma;
    state_[i].value = specs_[i].nominal + rng_.normal(0.0, specs_[i].sigma);
  }
}

void BladeSensors::step(double dt_minutes) noexcept {
  for (auto& s : state_) (void)s.step(rng_, dt_minutes);
}

bool BladeSensors::violates(SensorKind k) const noexcept {
  const auto i = static_cast<std::size_t>(k);
  const double v = state_[i].value;
  return v < specs_[i].warn_low || v > specs_[i].warn_high;
}

}  // namespace hpcfail::sensors
