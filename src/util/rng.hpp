// Deterministic, portable random number generation.
//
// std::mt19937 + std::uniform_*_distribution are not bit-reproducible across
// standard libraries, so every stochastic component in ffp uses this
// xoshiro256** engine with our own distributions. Results are identical on
// every platform for a given seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace ffp {

/// splitmix64: used to expand a single 64-bit seed into engine state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Sub-seed `salt` of `seed`: one splitmix64 step from seed ^ salt·φ, so
/// the stages of one run draw independent streams from its one seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

/// xoshiro256** by Blackman & Vigna — fast, high-quality, tiny state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0. Lemire's unbiased method.
  std::uint64_t below(std::uint64_t n) {
    FFP_DCHECK(n > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    FFP_DCHECK(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * f;
    have_spare_ = true;
    return u * f;
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// Uniformly pick an element.
  template <typename T>
  const T& pick(std::span<const T> items) {
    FFP_DCHECK(!items.empty());
    return items[below(items.size())];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Sample an index from non-negative weights (linear scan roulette wheel).
  /// Returns weights.size() if total weight is zero.
  std::size_t weighted_pick(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) {
      FFP_DCHECK(w >= 0.0);
      total += w;
    }
    if (total <= 0.0) return weights.size();
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      r -= weights[i];
      if (r < 0.0) return i;
    }
    return weights.size() - 1;  // numeric fallthrough
  }

  /// Derive an independent child generator (for parallel work / subsystems).
  Rng split() { return Rng((*this)() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace ffp
