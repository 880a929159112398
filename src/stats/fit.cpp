#include "stats/fit.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace hpcfail::stats {

namespace {
std::vector<double> positive_sorted(std::span<const double> sample) {
  std::vector<double> v;
  v.reserve(sample.size());
  for (double x : sample) {
    if (x > 0.0 && std::isfinite(x)) v.push_back(x);
  }
  std::sort(v.begin(), v.end());
  return v;
}
}  // namespace

std::optional<WeibullFit> fit_weibull(std::span<const double> sample) {
  const auto v = positive_sorted(sample);
  if (v.size() < 2 || v.front() == v.back()) return std::nullopt;

  // Profile-likelihood equation for shape k:
  //   g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0
  double mean_ln = 0.0;
  for (double x : v) mean_ln += std::log(x);
  mean_ln /= static_cast<double>(v.size());

  double k = 1.0;
  for (int iter = 0; iter < 100; ++iter) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0;
    for (double x : v) {
      const double lx = std::log(x);
      const double xk = std::pow(x, k);
      s0 += xk;
      s1 += xk * lx;
      s2 += xk * lx * lx;
    }
    const double g = s1 / s0 - 1.0 / k - mean_ln;
    const double gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
    if (gp <= 0.0) break;
    const double next = k - g / gp;
    if (!(next > 0.0) || !std::isfinite(next)) break;
    if (std::abs(next - k) < 1e-10 * k) {
      k = next;
      break;
    }
    k = next;
  }
  if (!(k > 0.0) || !std::isfinite(k)) return std::nullopt;

  double sk = 0.0;
  for (double x : v) sk += std::pow(x, k);
  const double lambda = std::pow(sk / static_cast<double>(v.size()), 1.0 / k);
  return WeibullFit{k, lambda};
}

}  // namespace hpcfail::stats
