// Ganglia-style per-minute telemetry sampling (§2.4).
//
// Ganglia reports hardware counters once per minute per GPU. At paper scale
// that is ~1e8 GPU-minutes over the trace window, so raw samples are never
// materialized: a job's execution is split into segments of constant expected
// utilization (segments change when co-tenants arrive/leave), and each
// segment contributes a bounded number of representative per-minute samples,
// weight-scaled so aggregate statistics are unchanged. Within-segment
// variation follows an AR(1) process — successive minutes of a training job
// are strongly correlated (iterations look alike), with occasional dips from
// checkpointing and input stalls.

#ifndef SRC_TELEMETRY_SAMPLER_H_
#define SRC_TELEMETRY_SAMPLER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/common/distributions.h"
#include "src/common/hash.h"
#include "src/common/sim_time.h"

namespace philly {

// AR(1) coefficient of the per-minute jitter around a segment's expected
// utilization.
inline constexpr double kAr1Rho = 0.80;

struct SamplerConfig {
  double jitter_sigma = 0.08;  // absolute utilization points
  // Cap on representative samples per segment; weights preserve total mass.
  int max_samples_per_segment = 64;
};

namespace sampler_internal {

inline double HashedNormal(uint64_t seed, uint64_t index) {
  const uint64_t h = Mix64(seed ^ (index * 0x9E3779B97F4A7C15ull));
  const double u = (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
  return Probit(u);
}

}  // namespace sampler_internal

// The per-minute jitter around an expected utilization, as a stationary
// AR(1) series: x_0 = sigma * N(seed, 0) and
// x_{i+1} = rho * x_i + sigma * sqrt(1 - rho^2) * N(seed, i + 1), so every
// x_i has stddev sigma. GangliaSampler draws one series per segment and
// ClusterTimeSeries one per running attempt.
class Ar1Jitter {
 public:
  Ar1Jitter() = default;
  Ar1Jitter(double sigma, uint64_t seed)
      : seed_(seed),
        innovation_sigma_(sigma * std::sqrt(1.0 - kAr1Rho * kAr1Rho)),
        x_(sigma * sampler_internal::HashedNormal(seed, 0)) {}

  // The current observation of `expected_util` (a fraction) in percent, as
  // Ganglia reports it; then steps the series.
  double NextPct(double expected_util) {
    const double value = std::clamp(expected_util + x_, 0.0, 1.0) * 100.0;
    x_ = kAr1Rho * x_ + innovation_sigma_ * sampler_internal::HashedNormal(seed_, ++index_);
    return value;
  }

 private:
  uint64_t seed_ = 0;
  uint64_t index_ = 0;  // of the last draw
  double innovation_sigma_ = 0.0;
  double x_ = 0.0;
};

class GangliaSampler {
 public:
  explicit GangliaSampler(SamplerConfig config = {});

  // Emits per-minute utilization observations for a segment with expected
  // utilization `expected_util` lasting `duration`. `sink(value, weight)` is
  // called with weight = number of GPU-minutes the observation represents
  // (per GPU; multiply by the job's GPU count at the call site if needed).
  // Deterministic given `seed`. Templated over the sink so the hottest inner
  // loop of analysis (millions of per-segment observations) inlines the sink
  // instead of dispatching through a std::function per observation.
  template <typename Sink>
  void SampleSegment(double expected_util, SimDuration duration, uint64_t seed,
                     const Sink& sink) const {
    if (duration <= 0) {
      return;
    }
    const double total_minutes = std::max(1.0, ToMinutes(duration));
    const int samples = static_cast<int>(std::min<double>(
        config_.max_samples_per_segment, std::ceil(total_minutes)));
    const double weight = total_minutes / samples;
    Ar1Jitter jitter(config_.jitter_sigma, seed);
    for (int i = 0; i < samples; ++i) {
      sink(jitter.NextPct(expected_util), weight);
    }
  }

  const SamplerConfig& config() const { return config_; }

 private:
  SamplerConfig config_;
};

}  // namespace philly

#endif  // SRC_TELEMETRY_SAMPLER_H_
