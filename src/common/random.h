#ifndef AQE_COMMON_RANDOM_H_
#define AQE_COMMON_RANDOM_H_

#include <cstdint>

#include "common/status.h"

namespace aqe {

/// Deterministic 64-bit PRNG (xorshift128+). Used by the TPC-H generator and
/// the property-test program generator so every run is reproducible.
///
/// The draws are defined inline: the generator calls them millions of times
/// with constant bounds, and inlining turns NextBelow's two divisions by a
/// constant into multiplies (same algorithm, same draws).
class Random {
 public:
  explicit Random(uint64_t seed) {
    uint64_t state = seed;
    s0_ = SplitMix64(&state);
    s1_ = SplitMix64(&state);
    if (s0_ == 0 && s1_ == 0) s0_ = 1;  // xorshift must not be all-zero
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n) {
    AQE_CHECK(n > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -n % n;
    for (;;) {
      const uint64_t r = Next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextRange(int64_t lo, int64_t hi) {
    AQE_CHECK(lo <= hi);
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
    return lo + static_cast<int64_t>(NextBelow(span));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 random mantissa bits.
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  /// splitmix64, to expand the seed into two independent state words.
  static uint64_t SplitMix64(uint64_t* state) {
    uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  uint64_t s0_;
  uint64_t s1_;
};

}  // namespace aqe

#endif  // AQE_COMMON_RANDOM_H_
