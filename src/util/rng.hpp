// Deterministic pseudo-random number generation for reproducible simulation.
//
// The standard library's distributions are not guaranteed to produce the
// same sequences across implementations, which would make golden tests and
// cross-machine reproduction of the synthetic corpora impossible.  We
// therefore ship a small, well-known generator (xoshiro256**) seeded through
// splitmix64, plus the handful of distributions the simulator needs, all
// with fully specified algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <cmath>
#include <span>
#include <vector>

namespace hpcfail::util {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One-shot stateless 64-bit mix (useful for hashing IDs into streams).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** by Blackman & Vigna: fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  /// Seeds the four state words via splitmix64 so that any 64-bit seed
  /// (including 0) yields a valid, well-mixed state.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
    cached_normal_valid_ = false;
  }

  /// Derives an independent child stream. Children of the same parent with
  /// distinct ids are statistically independent for simulation purposes.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept {
    std::uint64_t h = state_[0] ^ mix64(stream_id + 0x632be59bd9b4e019ULL);
    return Rng{mix64(h ^ state_[3])};
  }

  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
    // Lemire's unbiased bounded generation.
    std::uint64_t x = next_u64();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * span;
    auto lowbits = static_cast<std::uint64_t>(m);
    if (lowbits < span) {
      const std::uint64_t threshold = (0 - span) % span;
      while (lowbits < threshold) {
        x = next_u64();
        m = static_cast<unsigned __int128>(x) * span;
        lowbits = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<std::int64_t>(m >> 64);
  }

  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Box-Muller; one draw is cached.
  [[nodiscard]] double normal() noexcept {
    if (cached_normal_valid_) {
      cached_normal_valid_ = false;
      return cached_normal_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_normal_ = r * std::sin(theta);
    cached_normal_valid_ = true;
    return r * std::cos(theta);
  }

  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  [[nodiscard]] double exponential(double rate) noexcept {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -std::log(u) / rate;
  }

  /// Weibull(shape k, scale lambda) via inverse transform.
  [[nodiscard]] double weibull(double shape, double scale) noexcept {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return scale * std::pow(-std::log(u), 1.0 / shape);
  }

  /// Log-normal with the given parameters of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Poisson-distributed count. Knuth's method for small means, normal
  /// approximation (clamped at zero) for large means.
  [[nodiscard]] std::int64_t poisson(double mean) noexcept;

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Zero-weight entries are never chosen; requires at least one positive
  /// weight.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool cached_normal_valid_ = false;
};

}  // namespace hpcfail::util
