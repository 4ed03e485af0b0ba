// Deterministic pseudo-random number generation.
//
// Every stochastic component in libslim (workload models, network jitter, video content)
// draws from an explicitly seeded Rng so that simulations are bit-for-bit reproducible.
// The core generator is xoshiro256++ seeded via SplitMix64.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <bit>
#include <cstdint>

namespace slim {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5f11a9e1u);

  // Uniform over the full 64-bit range. Inline, like NextDouble: the content generators
  // draw one per pixel.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  // Uniform over [0, bound). bound must be nonzero.
  uint64_t NextBelow(uint64_t bound);

  // Uniform over [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform over [0, 1): 53 high bits.
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // True with probability p (clamped to [0, 1]).
  bool NextBool(double p);

  // Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  // Standard normal via Box-Muller, scaled to (mean, stddev).
  double NextNormal(double mean, double stddev);

  // Log-normal: exp(N(mu, sigma)). Heavy-tailed sizes (display updates, page weights).
  double NextLogNormal(double mu, double sigma);

  // Pareto with scale xm > 0 and shape alpha > 0. Heavy-tailed think times.
  double NextPareto(double xm, double alpha);

  // Poisson-distributed count with the given mean (small means only; inversion method).
  int NextPoisson(double mean);

  // Splits off an independently seeded child generator; used to give each simulated user or
  // flow its own stream so adding one does not perturb the others.
  Rng Split();

  // Mixes a base seed with identifying salts into a fresh seed (SplitMix64 finalizer).
  // Unlike Split(), this does not advance any generator: the fabric's chaos layer uses it to
  // derive one deterministic stream per (src, dst) link regardless of the order in which
  // links first see traffic.
  static uint64_t MixSeed(uint64_t seed, uint64_t salt_a, uint64_t salt_b = 0);

 private:
  uint64_t state_[4];
};

}  // namespace slim

#endif  // SRC_UTIL_RNG_H_
