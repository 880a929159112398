// Unit tests for src/sensors: OU processes and blade sensors.
#include <gtest/gtest.h>

#include "sensors/sensor_model.hpp"
#include "stats/summary.hpp"

namespace hpcfail::sensors {
namespace {

TEST(OuProcessTest, MeanReversion) {
  util::Rng rng(1);
  OuProcess p{40.0, 0.5, 1.0, 80.0};  // start far above the mean
  stats::StreamingStats tail;
  for (int i = 0; i < 5000; ++i) {
    const double v = p.step(rng, 1.0);
    if (i > 500) tail.add(v);
  }
  EXPECT_NEAR(tail.mean(), 40.0, 0.5);
  // Stationary stddev = sigma / sqrt(2a) = 1.
  EXPECT_NEAR(tail.stddev(), 1.0, 0.2);
}

TEST(OuProcessTest, DeterministicForSeed) {
  util::Rng a(5), b(5);
  OuProcess pa{0, 0.2, 1.0, 0}, pb{0, 0.2, 1.0, 0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(pa.step(a, 1.0), pb.step(b, 1.0));
  }
}

TEST(BladeSensorsTest, HealthyBladeRarelyViolates) {
  BladeSensors blade(util::Rng(7), /*deviant=*/false);
  int violations = 0;
  const int samples = 2000;
  for (int i = 0; i < samples; ++i) {
    blade.step(10.0);
    for (std::size_t k = 0; k < kSensorKindCount; ++k) {
      violations += blade.violates(static_cast<SensorKind>(k));
    }
  }
  EXPECT_LT(violations, samples / 20);
}

TEST(BladeSensorsTest, DeviantBladeViolatesOften) {
  BladeSensors blade(util::Rng(9), /*deviant=*/true);
  int violations = 0;
  const int samples = 1000;
  for (int i = 0; i < samples; ++i) {
    blade.step(10.0);
    violations += blade.violates(SensorKind::AirVelocity);
  }
  // The deviant blade's air velocity sits just below the low threshold.
  EXPECT_GT(violations, samples / 2);
  EXPECT_TRUE(blade.deviant());
}

TEST(BladeSensorsTest, TemperatureNearNominal) {
  BladeSensors blade(util::Rng(13), false);
  stats::StreamingStats temps;
  for (int i = 0; i < 2000; ++i) {
    blade.step(10.0);
    temps.add(blade.reading(SensorKind::CpuTemperature));
  }
  EXPECT_NEAR(temps.mean(), 40.0, 1.0);  // Fig 11's steady ~40 C
}

TEST(DefaultSpecTest, BandsContainNominal) {
  for (std::size_t k = 0; k < kSensorKindCount; ++k) {
    const SensorSpec spec = default_spec(static_cast<SensorKind>(k));
    EXPECT_LT(spec.warn_low, spec.nominal) << k;
    EXPECT_GT(spec.warn_high, spec.nominal) << k;
    EXPECT_GT(spec.sigma, 0.0);
  }
}

}  // namespace
}  // namespace hpcfail::sensors
