#include "src/util/rng.h"

#include <cmath>

#include "src/util/check.h"

namespace slim {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

uint64_t Rng::NextBelow(uint64_t bound) {
  SLIM_DCHECK(bound != 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  SLIM_DCHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(span == 0 ? NextU64() : NextBelow(span));
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  SLIM_DCHECK(mean > 0.0);
  double u = NextDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(1.0 - u);
}

double Rng::NextNormal(double mean, double stddev) {
  double u1 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double Rng::NextLogNormal(double mu, double sigma) { return std::exp(NextNormal(mu, sigma)); }

double Rng::NextPareto(double xm, double alpha) {
  SLIM_DCHECK(xm > 0.0 && alpha > 0.0);
  double u = NextDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return xm / std::pow(1.0 - u, 1.0 / alpha);
}

int Rng::NextPoisson(double mean) {
  SLIM_DCHECK(mean >= 0.0);
  if (mean <= 0.0) {
    return 0;
  }
  // Knuth's method; fine for the small means the workload models use.
  const double limit = std::exp(-mean);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= NextDouble();
  } while (p > limit);
  return k - 1;
}

Rng Rng::Split() { return Rng(NextU64()); }

uint64_t Rng::MixSeed(uint64_t seed, uint64_t salt_a, uint64_t salt_b) {
  uint64_t x = seed;
  uint64_t mixed = SplitMix64(x);
  x ^= salt_a * 0x9e3779b97f4a7c15ull;
  mixed ^= SplitMix64(x);
  x ^= salt_b * 0xbf58476d1ce4e5b9ull;
  mixed ^= SplitMix64(x);
  return mixed;
}

}  // namespace slim
