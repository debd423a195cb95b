// Synthetic trace generation, calibrated to the paper's published workload.
//
// This is the substitution for the proprietary Philly production trace
// (DESIGN.md §1): per-virtual-cluster Poisson arrivals with diurnal
// modulation, a GPU-demand mix whose bucket shares match the paper's
// (majority 1-GPU; 5-8 GPU — dominated by whole-server 8-GPU jobs — roughly
// 4-5x as common as >8 GPU), heavy-tailed lognormal-mixture run times
// (Figure 2: minutes to weeks, ~0.5% beyond one week, larger jobs run
// longer), a user population with skewed per-user submission counts, and
// intrinsic kill propensities that rise with job size and length so killed
// jobs consume a disproportionate share of GPU time (Table 6).

#ifndef SRC_WORKLOAD_GENERATOR_H_
#define SRC_WORKLOAD_GENERATOR_H_

#include <string>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/workload/job.h"

namespace philly {

// One virtual cluster (production group) — §2.3: each VC has a GPU quota and
// its own Fair Scheduler queue.
struct VcConfig {
  std::string name;
  int quota_gpus = 0;
  double arrival_rate_per_hour = 1.0;
  // Scales the probability of multi-GPU demand relative to the global mix.
  double multi_gpu_bias = 1.0;
  // VC4 in the paper contains no >8-GPU jobs (Figure 3 caption).
  bool allows_gt8 = true;
};

struct WorkloadConfig {
  std::vector<VcConfig> vcs;
  SimDuration duration = Days(75);
  // Week-periodic modulation, phase-shifted per VC so teams peak on
  // different days.
  double weekly_amplitude = 0.20;
  // Transient per-VC demand bursts ("deadline pushes"): exponential gaps with
  // this mean, uniform durations (generator.cc) and rate multipliers in the
  // given range. Bursts are what produce the heavy queueing-delay tails the
  // paper's Figure 3 shows; set mean_burst_interval to 0 to disable.
  SimDuration mean_burst_interval = Days(18);
  double min_burst_multiplier = 1.6;
  double max_burst_multiplier = 2.8;
  uint64_t seed = 42;

  // Warm start: inject a cohort of already-in-flight jobs at t=0 whose GPU
  // demand sums to roughly this many GPUs, with length-biased residual
  // durations — the steady-state population a long-running production cluster
  // carries. 0 disables. This lets short windows exhibit steady-state
  // queueing/occupancy instead of a multi-week ramp-up.
  int prepopulate_busy_gpus = 0;

  // 14 VCs sized against the paper-scale cluster (1984 GPUs); arrival rates
  // total ~53.5 jobs/hour so a 75-day window yields ~96k jobs.
  static WorkloadConfig PaperScale();

  // Same structure, shorter window (`days`), for examples/benches/tests.
  static WorkloadConfig Scaled(int days, uint64_t seed = 42);

  int TotalQuota() const;
  double TotalArrivalRate() const;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadConfig config);

  // Generates the full trace, sorted by submit time. Deterministic given the
  // config (including seed).
  std::vector<JobSpec> Generate();

  const WorkloadConfig& config() const { return config_; }

 private:
  JobSpec MakeJob(JobId id, VcId vc, SimTime submit_time, Rng& rng);
  int SampleGpuDemand(const VcConfig& vc, Rng& rng) const;
  SimDuration SampleDuration(SizeBucket bucket, Rng& rng) const;

  WorkloadConfig config_;
  std::vector<LognormalMixture> duration_by_bucket_;
};

}  // namespace philly

#endif  // SRC_WORKLOAD_GENERATOR_H_
