// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component in phillysim draws from an explicitly seeded Rng so
// that experiments are reproducible bit-for-bit given (seed, config). The engine
// is xoshiro256++ seeded through splitmix64; both are tiny, fast, and have no
// global state. Rng is cheap to copy and to Fork() into statistically
// independent child streams (one per job / per subsystem), which keeps results
// stable when unrelated parts of the simulation change their consumption order.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>
#include <span>

namespace philly {

// xoshiro256++ engine with convenience sampling methods.
//
// Not thread-safe; use one Rng per logical stream. Satisfies the
// UniformRandomBitGenerator concept so it can also drive <random> if needed.
class Rng {
 public:
  using result_type = uint64_t;

  // Seeds the stream via splitmix64 expansion of `seed`.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  // Next raw 64 random bits.
  uint64_t operator()();

  // Returns a child stream that is statistically independent of this one.
  // Advances this stream by one draw.
  Rng Fork();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t Below(uint64_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Between(int64_t lo, int64_t hi);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Standard normal via Box-Muller (cached pair).
  double Normal();

  // Normal with given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Lognormal: exp(Normal(mu, sigma)). `mu`/`sigma` are the parameters of the
  // underlying normal (so the median is exp(mu)).
  double Lognormal(double mu, double sigma);

  // Exponential with the given mean (not rate). Requires mean > 0.
  double Exponential(double mean);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  uint64_t Poisson(double mean);

  // Samples an index in [0, weights.size()) proportionally to `weights`.
  // Non-positive weights are treated as zero. Requires at least one positive
  // weight.
  size_t Categorical(std::span<const double> weights);

 private:
  uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace philly

#endif  // SRC_COMMON_RNG_H_
