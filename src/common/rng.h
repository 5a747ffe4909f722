// Copyright 2026 The siot-trust Authors.
// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in the library takes an explicit seed so that
// experiments reproduce bit-for-bit across runs and platforms. The core
// generator is xoshiro256** (Blackman & Vigna) seeded through SplitMix64,
// which is the recommended seeding procedure for the xoshiro family.

#ifndef SIOT_COMMON_RNG_H_
#define SIOT_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace siot {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Used for seeding and for cheap stateless hashing of seed material.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Mixes two seed values into one (order-sensitive). Handy for deriving
/// per-node or per-round substreams from a master seed.
inline std::uint64_t MixSeed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  return SplitMix64(s);
}

/// xoshiro256** deterministic PRNG with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator, so it can also drive <random>
/// distributions, but the built-in helpers below are preferred: they are
/// guaranteed stable across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64; any 64-bit value (including 0) is a valid seed.
  explicit Rng(std::uint64_t seed = 0x5EEDF00Dull) { Reseed(seed); }

  /// Re-initializes the stream from `seed`.
  void Reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next raw 64 bits.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  result_type operator()() { return Next(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    SIOT_CHECK(lo <= hi);
    return lo + (hi - lo) * NextDouble();
  }

  /// Uniform integer in [0, bound). Uses rejection sampling (unbiased).
  std::uint64_t NextBounded(std::uint64_t bound) {
    SIOT_CHECK(bound > 0);
    // Lemire-style: threshold rejection over the full 64-bit range.
    const std::uint64_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    SIOT_CHECK(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(NextBounded(span));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Standard normal via Box–Muller (stable across platforms).
  double Gaussian();

  /// Normal with the given mean and standard deviation (sd >= 0).
  double Gaussian(double mean, double sd) {
    SIOT_CHECK(sd >= 0.0);
    return mean + sd * Gaussian();
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Derives an independent child stream; deterministic in (this state, tag).
  Rng Fork(std::uint64_t tag) {
    return Rng(MixSeed(Next(), tag));
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace siot

#endif  // SIOT_COMMON_RNG_H_
