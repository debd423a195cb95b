#include "src/workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/workload/model_zoo.h"

namespace philly {
namespace {

// Global GPU-demand mix (values, weights). Whole-server 8-GPU jobs are the
// dominant distributed size; >8-GPU jobs are roughly 4-5x rarer than 5-8 GPU
// ones, matching the relative frequencies behind Table 2.
constexpr int kDemandValues[] = {1, 2, 3, 4, 8, 16, 24, 32, 64};
constexpr double kDemandWeights[] = {50.0, 8.0, 1.0, 13.0, 22.0, 3.5, 0.9, 0.9, 0.45};
static_assert(std::size(kDemandValues) == std::size(kDemandWeights));

constexpr double kMinutes = 60.0;

// Day-periodic modulation of every VC's arrival rate.
constexpr double kDiurnalAmplitude = 0.25;
// A deadline-push burst lasts a uniform draw from this range.
constexpr SimDuration kMinBurstDuration = Hours(12);
constexpr SimDuration kMaxBurstDuration = Hours(60);
// The user population the VCs' slices are cut from.
constexpr int kNumUsers = 300;
// Fraction of jobs whose frameworks print per-epoch loss (paper: 2502 of
// 96260 jobs had recoverable convergence information).
constexpr double kConvergenceLoggingFraction = 0.026;

LognormalMixture MakeDurationMixture(SizeBucket bucket) {
  // Components are (weight, median minutes, sigma): a quick debug/smoke-run
  // mode, the main training mode, and a multi-day tail. Larger jobs shift
  // right (Figure 2: jobs with more GPUs tend to run longer; ~0.5% of all
  // jobs exceed one week).
  LognormalMixture mix;
  switch (bucket) {
    case SizeBucket::k1Gpu:
      mix.AddComponent(0.25, LognormalSpec::FromMedianP90(3.0, 25.0));
      mix.AddComponent(0.70, LognormalSpec::FromMedianP90(35.0, 350.0));
      mix.AddComponent(0.05, LognormalSpec::FromMedianP90(1200.0, 7000.0));
      break;
    case SizeBucket::k2To4Gpu:
      mix.AddComponent(0.20, LognormalSpec::FromMedianP90(4.0, 30.0));
      mix.AddComponent(0.72, LognormalSpec::FromMedianP90(60.0, 600.0));
      mix.AddComponent(0.08, LognormalSpec::FromMedianP90(1500.0, 8500.0));
      break;
    case SizeBucket::k5To8Gpu:
      mix.AddComponent(0.15, LognormalSpec::FromMedianP90(5.0, 35.0));
      mix.AddComponent(0.73, LognormalSpec::FromMedianP90(95.0, 900.0));
      mix.AddComponent(0.12, LognormalSpec::FromMedianP90(1800.0, 10000.0));
      break;
    case SizeBucket::kGt8Gpu:
      mix.AddComponent(0.10, LognormalSpec::FromMedianP90(6.0, 40.0));
      mix.AddComponent(0.70, LognormalSpec::FromMedianP90(150.0, 1400.0));
      mix.AddComponent(0.20, LognormalSpec::FromMedianP90(2400.0, 13000.0));
      break;
  }
  return mix;
}

}  // namespace

WorkloadConfig WorkloadConfig::PaperScale() {
  WorkloadConfig c;
  // Five large VCs (the ones Figure 3 plots) and nine small ones; quota shares
  // oversubscribe the 2240-GPU paper-scale cluster by ~1.4x (typical for
  // fair-share YARN deployments, and what makes quota exhaustion transient
  // rather than chronic), except vc4 whose demand chronically exceeds its
  // deliberately small quota (the paper's fair-share-delay-heavy VC5). vc3 mirrors the paper's VC4 (no
  // >8-GPU jobs); vc4 mirrors VC5 (arrival load high relative to quota, so
  // fair-share delay dominates more often).
  c.vcs = {
      // Base rates are ~8% below the headline per-VC demand so that the
      // deadline-push bursts bring the 75-day job count to the paper's ~96k.
      {"vc0", 680, 11.5, 1.0, true},
      {"vc1", 600, 9.7, 1.1, true},
      {"vc2", 520, 8.7, 1.2, true},
      {"vc3", 410, 5.5, 0.9, false},
      {"vc4", 110, 5.5, 1.0, true},
      {"vc5", 122, 1.38, 0.8, true},
      {"vc6", 109, 1.29, 0.8, true},
      {"vc7", 101, 1.10, 0.8, true},
      {"vc8", 93, 1.01, 0.7, true},
      {"vc9", 89, 0.92, 0.7, true},
      {"vc10", 78, 0.83, 0.6, true},
      {"vc11", 74, 0.74, 0.6, true},
      {"vc12", 72, 0.74, 0.6, true},
      {"vc13", 62, 0.74, 0.6, true},
  };
  c.prepopulate_busy_gpus = 2800;
  return c;
}

WorkloadConfig WorkloadConfig::Scaled(int days, uint64_t seed) {
  WorkloadConfig c = PaperScale();
  c.duration = Days(days);
  c.seed = seed;
  return c;
}

int WorkloadConfig::TotalQuota() const {
  int q = 0;
  for (const auto& vc : vcs) {
    q += vc.quota_gpus;
  }
  return q;
}

double WorkloadConfig::TotalArrivalRate() const {
  double r = 0.0;
  for (const auto& vc : vcs) {
    r += vc.arrival_rate_per_hour;
  }
  return r;
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config) : config_(std::move(config)) {
  assert(!config_.vcs.empty());
  duration_by_bucket_.reserve(kNumSizeBuckets);
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    duration_by_bucket_.push_back(MakeDurationMixture(static_cast<SizeBucket>(b)));
  }
}

int WorkloadGenerator::SampleGpuDemand(const VcConfig& vc, Rng& rng) const {
  double weights[std::size(kDemandValues)];
  for (size_t i = 0; i < std::size(kDemandValues); ++i) {
    weights[i] = kDemandWeights[i];
    if (kDemandValues[i] > 1) {
      weights[i] *= vc.multi_gpu_bias;
    }
    if (kDemandValues[i] > 8 && !vc.allows_gt8) {
      weights[i] = 0.0;
    }
  }
  return kDemandValues[rng.Categorical(weights)];
}

SimDuration WorkloadGenerator::SampleDuration(SizeBucket bucket, Rng& rng) const {
  const double minutes = duration_by_bucket_[static_cast<size_t>(bucket)].Sample(rng);
  const double seconds = std::clamp(minutes * kMinutes, 30.0, 60.0 * 86400.0);
  return static_cast<SimDuration>(seconds);
}

JobSpec WorkloadGenerator::MakeJob(JobId id, VcId vc_id, SimTime submit_time, Rng& rng) {
  const VcConfig& vc = config_.vcs[static_cast<size_t>(vc_id)];
  JobSpec job;
  job.id = id;
  job.vc = vc_id;
  job.submit_time = submit_time;
  job.num_gpus = SampleGpuDemand(vc, rng);
  const SizeBucket bucket = BucketOf(job.num_gpus);

  // Users: each VC draws from its own slice of the user population, with a
  // quadratic skew so a handful of engineers submit most of a VC's jobs
  // (failure analysis in §4.2.2 depends on per-user concentration).
  const int users_per_vc = std::max(3, kNumUsers / static_cast<int>(config_.vcs.size()));
  const double skew = rng.Uniform();
  const int user_rank = static_cast<int>(skew * skew * users_per_vc);
  job.user = static_cast<UserId>(vc_id * users_per_vc + std::min(user_rank, users_per_vc - 1));

  // Model family & batch size.
  double family_weights[kNumModelFamilies];
  for (int f = 0; f < kNumModelFamilies; ++f) {
    family_weights[f] = ProfileOf(static_cast<ModelFamily>(f)).mix_weight;
  }
  job.model = static_cast<ModelFamily>(rng.Categorical(family_weights));
  const ModelProfile& profile = ProfileOf(job.model);
  constexpr double kBatchMultWeights[] = {0.15, 0.50, 0.25, 0.10};
  constexpr double kBatchMult[] = {0.5, 1.0, 2.0, 4.0};
  const size_t batch_pick = rng.Categorical(kBatchMultWeights);
  job.batch_size =
      std::max(1, static_cast<int>(profile.reference_batch * kBatchMult[batch_pick]));

  job.planned_duration = SampleDuration(bucket, rng);
  job.planned_epochs = static_cast<int>(
      std::clamp(rng.Lognormal(std::log(40.0), 0.9), 2.0, 1000.0));

  // Base utilization: family prior x batch scaling, clamped.
  const double raw_util = rng.Normal(profile.base_util_mean, profile.base_util_sigma) *
                          BatchUtilizationScale(job.batch_size, profile.reference_batch);
  job.base_utilization = std::clamp(raw_util, 0.05, 1.0);

  job.logs_convergence = rng.Bernoulli(kConvergenceLoggingFraction);

  // Loss-curve parameters (§4.1 / Figure 8). `f_star` is the fraction of
  // epochs needed to come within 0.1% of the final minimum.
  LossCurveParams& curve = job.loss_curve;
  curve.floor = rng.Uniform(0.3, 2.0);
  curve.amplitude = curve.floor * rng.Uniform(1.0, 3.0);
  const double f_star =
      std::clamp(rng.Lognormal(std::log(0.30), 0.40), 0.05, 0.85);
  curve.decay_rate = std::log(curve.amplitude / (0.001 * curve.floor)) /
                     (f_star * static_cast<double>(job.planned_epochs));
  curve.end_drift = 0.0005 * curve.floor;
  // 80% of curves keep improving (argmin in the final epochs): their noise is
  // kept well below the per-epoch drift so the minimum lands at the end. The
  // rest are noisy and bottom out somewhere in the flat tail.
  curve.noise_sigma = rng.Bernoulli(0.80)
                          ? curve.end_drift / (10.0 * job.planned_epochs)
                          : 0.004 * curve.floor;

  // Kill propensity rises with run length and job size: users watch long/large
  // jobs and terminate ones that stop improving, which is why killed jobs are
  // 13.5% of jobs but 37.7% of consumed GPU time (Table 6). The kill point is
  // coupled to the loss plateau: users kill some time after the curve comes
  // within noise of its floor (Figure 8b shows killed jobs spend most epochs
  // past the 0.1%-of-minimum point, like passed jobs).
  const double dur_minutes = ToMinutes(job.planned_duration);
  const double dur_factor =
      std::clamp(std::log(dur_minutes / 30.0) / std::log(10000.0 / 30.0), 0.0, 1.0);
  const double size_factor = static_cast<double>(static_cast<int>(bucket)) / 3.0;
  const double p_kill =
      0.095 + 0.50 * std::pow(dur_factor, 2.2) + 0.04 * size_factor;
  if (rng.Bernoulli(p_kill)) {
    job.intrinsic = IntrinsicOutcome::kKilledByUser;
    job.kill_fraction =
        std::clamp(f_star * rng.Uniform(1.1, 5.0) + 0.05, 0.05, 1.0);
  }

  return job;
}

std::vector<JobSpec> WorkloadGenerator::Generate() {
  Rng root(config_.seed);
  std::vector<JobSpec> jobs;
  JobId next_warm_id = 1;

  if (config_.prepopulate_busy_gpus > 0) {
    // Warm cohort: sample jobs length-biased (long jobs dominate the standing
    // population) and give each a uniform residual of its duration, the
    // stationary-renewal residual-life distribution.
    Rng warm = root.Fork();
    std::vector<double> quota_weights;
    quota_weights.reserve(config_.vcs.size());
    for (const auto& vc : config_.vcs) {
      quota_weights.push_back(static_cast<double>(vc.quota_gpus));
    }
    const double kLengthBiasRef = 5.0 * 1440.0;  // minutes; >=5-day jobs always kept
    int busy = 0;
    while (busy < config_.prepopulate_busy_gpus) {
      const auto vc_id = static_cast<VcId>(warm.Categorical(quota_weights));
      JobSpec job = MakeJob(next_warm_id, vc_id, 0, warm);
      const double minutes = ToMinutes(job.planned_duration);
      if (!warm.Bernoulli(std::min(1.0, minutes / kLengthBiasRef))) {
        continue;
      }
      job.planned_duration = std::max<SimDuration>(
          60, static_cast<SimDuration>(warm.Uniform() * job.planned_duration));
      jobs.push_back(job);
      busy += job.num_gpus;
      ++next_warm_id;
    }
  }

  struct VcStream {
    ArrivalProcess process;
    Rng rng;
    SimTime next = 0;
  };
  std::vector<VcStream> streams;
  streams.reserve(config_.vcs.size());
  for (size_t vc_index = 0; vc_index < config_.vcs.size(); ++vc_index) {
    const auto& vc = config_.vcs[vc_index];
    const double weekly_phase = 2.0 * 3.14159265358979 *
                                static_cast<double>(vc_index) /
                                static_cast<double>(config_.vcs.size());
    VcStream s{ArrivalProcess(vc.arrival_rate_per_hour, kDiurnalAmplitude,
                              config_.weekly_amplitude, weekly_phase),
               root.Fork(), 0};
    // Deadline-push bursts, sampled up front so the schedule is deterministic.
    if (config_.mean_burst_interval > 0) {
      SimTime t = 0;
      for (;;) {
        t += static_cast<SimTime>(s.rng.Exponential(
            static_cast<double>(config_.mean_burst_interval)));
        if (t >= config_.duration) {
          break;
        }
        const auto duration = static_cast<SimDuration>(
            s.rng.Uniform(static_cast<double>(kMinBurstDuration),
                          static_cast<double>(kMaxBurstDuration)));
        s.process.AddBurst(t, t + duration,
                           s.rng.Uniform(config_.min_burst_multiplier,
                                         config_.max_burst_multiplier));
        t += duration;
      }
    }
    s.next = s.process.NextAfter(0, s.rng);
    streams.push_back(std::move(s));
  }

  JobId next_id = next_warm_id;
  for (;;) {
    // Pick the VC with the earliest pending arrival (deterministic ties).
    size_t best = 0;
    for (size_t i = 1; i < streams.size(); ++i) {
      if (streams[i].next < streams[best].next) {
        best = i;
      }
    }
    const SimTime t = streams[best].next;
    if (t >= config_.duration) {
      break;
    }
    jobs.push_back(MakeJob(next_id++, static_cast<VcId>(best), t, streams[best].rng));
    streams[best].next = streams[best].process.NextAfter(t, streams[best].rng);
  }
  // Arrival interleaving above already yields submit-time order; enforce it
  // defensively (stable for equal times by construction of ids).
  std::stable_sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.submit_time < b.submit_time;
  });
  return jobs;
}

}  // namespace philly
