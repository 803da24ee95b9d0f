// Deterministic, jumpable pseudo-random number generation.
//
// Measurement campaigns need one independent random stream per run so that
// (a) results are reproducible from a single master seed and (b) runs can be
// executed on any number of threads without changing the outcome. We use
// xoshiro256** (public-domain algorithm by Blackman & Vigna) seeded through
// splitmix64, which is the recommended seeding procedure for that family.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace mbcr {

// The per-access paths (placement hashes, victim draws) are inline here:
// replay and TAC call them once per line or per miss.

/// splitmix64 step: advances `state` and returns the next 64-bit value.
/// Used both as a standalone mixer and to expand seeds for Xoshiro256.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless mixing hash over (value, seed); used by the random-placement
/// cache to derive a per-run address-to-set mapping.
inline std::uint64_t mix64(std::uint64_t value, std::uint64_t seed) {
  std::uint64_t s = seed ^ (value * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by running splitmix64 on `seed`.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    for (auto& word : state_) word = splitmix64(seed);
    // All-zero state is the one invalid state for xoshiro; splitmix64
    // cannot produce four zero outputs in a row, so no further check is
    // needed.
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Advances the state by 2^128 steps: partitions the period into
  /// non-overlapping streams for parallel campaigns.
  void jump();

  /// Returns a uniformly distributed integer in [0, bound) without modulo
  /// bias (Lemire's multiply-shift rejection method).
  std::uint32_t uniform(std::uint32_t bound) {
    // Multiply a 32-bit random value by `bound` and keep the high word;
    // reject the short range that would introduce bias.
    std::uint64_t x = (*this)() >> 32;
    std::uint64_t m = x * bound;
    auto low = static_cast<std::uint32_t>(m);
    if (low < bound) {
      const std::uint32_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)() >> 32;
        m = x * bound;
        low = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1).
  double uniform01();

private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace mbcr
