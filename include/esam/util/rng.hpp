// Deterministic pseudo-random number generation for all stochastic parts of
// the reproduction (synthetic data, weight init, training shuffles, STDP).
//
// A single xoshiro256** engine keeps results bit-identical across platforms
// (std::mt19937 distributions are implementation-defined, so we implement the
// few distributions we need ourselves).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace esam::util {

/// One splitmix64 step: a stateless 64-bit mix with good avalanche. Used to
/// derive decorrelated per-component seeds from (base seed, component index)
/// pairs -- e.g. one STDP stream per tile in the online trainer.
[[nodiscard]] std::uint64_t splitmix64_mix(std::uint64_t x);

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
/// Deterministic across platforms, 2^256-1 period, passes BigCrush.
class Rng {
 public:
  /// Seeds the stream; the same seed always yields the same sequence.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value. Inline, like the two uniform() draws: the
  /// synthetic digit generator draws one per pixel.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1): the 53 high bits of next_u64().
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n); n must be > 0. Unbiased (rejection sampling).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// True with probability `p` (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (cached pair).
  double normal();

  /// Normal with mean/stddev.
  double normal(double mean, double stddev);

  /// Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child stream (for per-component seeding).
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace esam::util
