// Unit and property tests for src/stats.
#include <gtest/gtest.h>

#include "stats/bootstrap.hpp"
#include "stats/ecdf.hpp"
#include "stats/fit.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace hpcfail::stats {
namespace {

// ------------------------------------------------------------ summary ----

TEST(SummaryTest, MatchesDirectComputation) {
  StreamingStats s;
  const std::vector<double> data = {1.0, 2.5, -3.0, 7.0, 0.0};
  double sum = 0;
  for (const double x : data) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / data.size();
  double var = 0;
  for (const double x : data) var += (x - mean) * (x - mean);
  var /= data.size() - 1;
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_EQ(s.min(), -3.0);
  EXPECT_EQ(s.max(), 7.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(SummaryTest, MergeEqualsSequential) {
  util::Rng rng(1);
  StreamingStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-8);
}

TEST(SummaryTest, MergeWithEmpty) {
  StreamingStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 1.0);
}

TEST(SummaryTest, EmptyIsZero) {
  const StreamingStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

// --------------------------------------------------------------- ecdf ----

TEST(EcdfTest, FractionAndQuantiles) {
  const std::vector<double> v = {3, 1, 2, 4, 5};
  const Ecdf e{v};
  EXPECT_DOUBLE_EQ(e.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.fraction_at_or_below(3.0), 0.6);
  EXPECT_DOUBLE_EQ(e.fraction_at_or_below(100), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 3.0);
}

class EcdfMonotonic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdfMonotonic, FractionMonotonicQuantileMonotonic) {
  util::Rng rng(GetParam());
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(rng.lognormal(1.0, 2.0));
  const Ecdf e{sample};
  double prev = -1.0;
  for (double x = 0.0; x < 50.0; x += 0.5) {
    const double f = e.fraction_at_or_below(x);
    ASSERT_GE(f, prev);
    ASSERT_GE(f, 0.0);
    ASSERT_LE(f, 1.0);
    prev = f;
  }
  double prev_q = -1e300;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = e.quantile(q);
    ASSERT_GE(v, prev_q);
    prev_q = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfMonotonic, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------- fit ----

class WeibullRecovery : public ::testing::TestWithParam<double> {};

TEST_P(WeibullRecovery, RecoversShape) {
  const double shape = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(shape * 1000));
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.weibull(shape, 7.0));
  const auto fit = fit_weibull(sample);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->shape, shape, shape * 0.05);
  EXPECT_NEAR(fit->scale, 7.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, WeibullRecovery, ::testing::Values(0.5, 0.8, 1.0, 1.5, 3.0));

TEST(FitTest, DegenerateSamplesRejected) {
  EXPECT_FALSE(fit_weibull(std::vector<double>{2.0, 2.0, 2.0}).has_value());
}

// ----------------------------------------------------------- bootstrap ----

TEST(BootstrapTest, MeanCiCoversTruth) {
  util::Rng rng(29);
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(rng.normal(10.0, 2.0));
  const auto ci = bootstrap_mean_ci(sample, 600, 0.95);
  EXPECT_NEAR(ci.point, 10.0, 0.5);
  EXPECT_LT(ci.lo, ci.point);
  EXPECT_GT(ci.hi, ci.point);
  EXPECT_LT(ci.lo, 10.0);
  EXPECT_GT(ci.hi, 10.0);
  EXPECT_LT(ci.hi - ci.lo, 1.0);  // ~4 * 2/sqrt(500)
}

TEST(BootstrapTest, DegenerateCases) {
  const auto empty = bootstrap_mean_ci(std::vector<double>{});
  EXPECT_EQ(empty.point, 0.0);
  const auto single = bootstrap_mean_ci(std::vector<double>{3.0});
  EXPECT_EQ(single.point, 3.0);
  EXPECT_EQ(single.lo, 3.0);
  EXPECT_EQ(single.hi, 3.0);
}

TEST(BootstrapTest, CustomStatistic) {
  const std::vector<double> sample = {1, 2, 3, 4, 100};
  const auto ci = bootstrap_ci(
      sample, [](std::span<const double> s) { return Ecdf{s}.quantile(0.5); }, 300);
  EXPECT_EQ(ci.point, 3.0);
}

}  // namespace
}  // namespace hpcfail::stats
