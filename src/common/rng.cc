#include "src/common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "src/common/hash.h"

namespace philly {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
  // xoshiro must not start from the all-zero state; splitmix cannot produce
  // four zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

uint64_t Rng::operator()() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

Rng Rng::Fork() { return Rng((*this)() ^ 0xA5A5A5A55A5A5A5Aull); }

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::Below(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

int64_t Rng::Between(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 0.0);
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::Lognormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u = 0.0;
  do {
    u = Uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

uint64_t Rng::Poisson(double mean) {
  assert(mean >= 0.0);
  if (mean <= 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation with continuity correction; adequate for arrival
    // batching at simulation scale.
    const double x = Normal(mean, std::sqrt(mean));
    return x <= 0.0 ? 0 : static_cast<uint64_t>(x + 0.5);
  }
  const double limit = std::exp(-mean);
  uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= Uniform();
  } while (p > limit);
  return k - 1;
}

size_t Rng::Categorical(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) {
      total += w;
    }
  }
  assert(total > 0.0);
  double target = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) {
      return i;
    }
    target -= w;
  }
  // Floating-point round-off: return the last positive-weight index.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) {
      return i - 1;
    }
  }
  return 0;
}

}  // namespace philly
