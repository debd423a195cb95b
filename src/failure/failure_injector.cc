#include "src/failure/failure_injector.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "src/common/hash.h"

namespace philly {
namespace {

// Per-size-bucket probability that a job experiences failures at all
// (1 / 2-4 / 5-8 / >8 GPUs). Overall ~18% of jobs under the default mix.
constexpr std::array<double, kNumSizeBuckets> kFailureProbByBucket = {0.095, 0.15, 0.21, 0.33};

}  // namespace

FailureInjector::FailureInjector(FailureInjectorConfig config) : config_(config) {
  const auto catalog = FailureCatalog();
  for (int b = 0; b < kNumDemandBuckets; ++b) {
    for (int r = 0; r < kNumFailureReasons; ++r) {
      const auto& info = catalog[static_cast<size_t>(r)];
      double demand_total = 0.0;
      for (double d : info.demand_counts) {
        demand_total += d;
      }
      const double share =
          demand_total > 0 ? info.demand_counts[static_cast<size_t>(b)] / demand_total
                           : 0.0;
      // Scheduler-driven preemption is emitted by the scheduler itself, not
      // injected, so its weight here is zero.
      const bool injectable = info.reason != FailureReason::kJobPreempted;
      bucket_weights_[static_cast<size_t>(b)][static_cast<size_t>(r)] =
          injectable ? info.paper_trials * share : 0.0;
    }
  }
}

double FailureInjector::UserReasonMultiplier(UserId user, FailureReason reason) const {
  const uint64_t h = Mix64((static_cast<uint64_t>(user) << 20) ^
                           static_cast<uint64_t>(reason) ^ (config_.seed * 0x9E37ull));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < config_.cursed_pair_prob ? config_.cursed_pair_multiplier : 1.0;
}

FailureReason FailureInjector::SampleReason(const JobSpec& job, Rng& rng) const {
  const auto bucket = static_cast<size_t>(DemandBucketOf(job.num_gpus));
  const double planned_min = ToMinutes(job.planned_duration);
  std::array<double, kNumFailureReasons> weights = bucket_weights_[bucket];
  for (int r = 0; r < kNumFailureReasons; ++r) {
    const auto& info = FailureCatalog()[static_cast<size_t>(r)];
    // Jobs much shorter than a reason's median RTF are unlikely to live long
    // enough to hit it (checkpoint/MPI-runtime failures happen to long jobs).
    if (planned_min < info.rtf_p50_min && info.rtf_p50_min > 0) {
      weights[static_cast<size_t>(r)] *= std::pow(planned_min / info.rtf_p50_min, 0.8);
    }
    // Reasons whose RTF grows with demand (distributed-sync semantic bugs)
    // also need the long-job population: a big job must run long enough for
    // the scaled RTF to materialize (§4.2.4).
    if (info.demand_rtf_exponent > 0.0 && planned_min > info.rtf_p50_min) {
      weights[static_cast<size_t>(r)] *=
          std::min(5.0, std::pow(planned_min / info.rtf_p50_min, 0.25));
    }
    weights[static_cast<size_t>(r)] *=
        UserReasonMultiplier(job.user, static_cast<FailureReason>(r));
  }
  return static_cast<FailureReason>(rng.Categorical(weights));
}

SimDuration FailureInjector::SampleRtf(const FailureReasonInfo& info, SimDuration planned,
                                       int num_gpus, Rng& rng) const {
  constexpr int kMaxRejects = 40;
  const auto planned_min = ToMinutes(planned);
  const double demand_scale =
      info.demand_rtf_exponent > 0.0
          ? std::pow(static_cast<double>(num_gpus), info.demand_rtf_exponent)
          : 1.0;
  for (int i = 0; i < kMaxRejects; ++i) {
    const double rtf_min = info.rtf_fit.Sample(rng) * demand_scale;
    if (rtf_min <= planned_min) {
      return std::max<SimDuration>(2, static_cast<SimDuration>(rtf_min * 60.0));
    }
  }
  // The job is simply too short for this reason's typical RTF: fail somewhere
  // in the back half of the run.
  return std::max<SimDuration>(
      2, static_cast<SimDuration>(planned * rng.Uniform(0.5, 1.0)));
}

FailurePlan FailureInjector::PlanFor(const JobSpec& job) const {
  FailurePlan plan;
  Rng rng(Mix64(config_.seed ^ (static_cast<uint64_t>(job.id) * 0x9E3779B97F4A7C15ull)));

  const auto bucket = static_cast<size_t>(BucketOf(job.num_gpus));
  // A user-level proneness multiplier (lognormal around 1) concentrates
  // failures on some users beyond the per-reason curses.
  const uint64_t uh = Mix64(static_cast<uint64_t>(job.user) ^ (config_.seed << 7));
  const double u = (static_cast<double>(uh >> 11) + 0.5) * 0x1.0p-53;
  const double user_proneness = std::exp(0.5 * Probit(u));

  // Long jobs live through more opportunities to fail (checkpoints, network
  // incidents); this also gives infra failures the long-job population their
  // large RTFs require.
  const double dur_factor = std::clamp(
      std::log(ToMinutes(job.planned_duration) / 30.0) / std::log(10000.0 / 30.0), 0.0,
      1.0);
  const double p_fail = std::clamp(kFailureProbByBucket[bucket] *
                                       user_proneness * (0.7 + 1.5 * dur_factor) *
                                       config_.failure_scale,
                                   0.0, 0.95);
  if (!rng.Bernoulli(p_fail)) {
    return plan;
  }

  plan.fails = true;
  plan.reason = SampleReason(job, rng);
  const FailureReasonInfo& info = InfoOf(plan.reason);

  // Trials: floor/ceil mixture matching the catalog's mean trials per job.
  const double mean = std::max(1.0, info.mean_trials_per_job);
  const double fl = std::floor(mean);
  const int n = static_cast<int>(fl) + (rng.Bernoulli(mean - fl) ? 1 : 0);
  plan.num_failure_trials = std::clamp(n, 1, config_.max_failure_trials);
  plan.trial_rtfs.reserve(static_cast<size_t>(plan.num_failure_trials));
  for (int i = 0; i < plan.num_failure_trials; ++i) {
    plan.trial_rtfs.push_back(
        SampleRtf(info, job.planned_duration, job.num_gpus, rng));
  }

  const double roll = rng.Uniform();
  if (roll < info.unsuccessful_prob) {
    plan.disposition = PostFailureDisposition::kUnsuccessful;
  } else if (roll < info.unsuccessful_prob + info.killed_after_failure_prob) {
    plan.disposition = PostFailureDisposition::kKilledByUser;
  } else {
    plan.disposition = PostFailureDisposition::kRecoversClean;
  }
  return plan;
}

}  // namespace philly
