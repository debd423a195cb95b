// Failure injection: decides, per job, whether and how it fails.
//
// The injector is the exogenous half of §4.2: it assigns each job a failure
// plan — reason, number of failure trials, per-trial runtime-to-failure, and
// the terminal disposition after failures stop — sampled from the Table 7
// catalog. The endogenous half (actual retry execution, preemption events,
// GPU-time accounting) happens in the scheduler/runtime.
//
// Plans are deterministic per (seed, job id): calling PlanFor twice for the
// same job returns the same plan regardless of call order, which keeps the
// simulation reproducible under scheduler changes.
//
// Modeling choices (calibrated in tests, documented in DESIGN.md):
//  * P(job experiences failures) rises with GPU count — Fig 9 shows larger
//    jobs retry more and finish unsuccessful more often.
//  * A per-(user, reason) "cursed" multiplier concentrates some reasons on a
//    few users (§4.2.2: one engineer caused most CPU-OOM trials; user-level
//    repetition factor 38.8 vs job-level 2.3).
//  * Reason choice is conditioned on the job's demand bucket (Table 7 demand
//    columns) and penalized when the job is too short to plausibly reach the
//    reason's typical RTF — this is exactly the paper's observation that
//    infrastructure failures appear only after long executions.

#ifndef SRC_FAILURE_FAILURE_INJECTOR_H_
#define SRC_FAILURE_FAILURE_INJECTOR_H_

#include <vector>

#include "src/common/rng.h"
#include "src/failure/failure_catalog.h"
#include "src/workload/job.h"

namespace philly {

// What the job does after its failure trials stop.
enum class PostFailureDisposition {
  kUnsuccessful,   // retries exhausted; scheduler marks the job unsuccessful
  kKilledByUser,   // user notices the failures and terminates the job
  kRecoversClean,  // transient issue; next attempt runs to the intrinsic outcome
};

struct FailurePlan {
  bool fails = false;
  FailureReason reason = FailureReason::kNoSignature;
  // Number of consecutive failing attempts (>= 1 when fails).
  int num_failure_trials = 0;
  // Runtime-to-failure for each failing attempt, seconds.
  std::vector<SimDuration> trial_rtfs;
  PostFailureDisposition disposition = PostFailureDisposition::kRecoversClean;
};

struct FailureInjectorConfig {
  uint64_t seed = 7;
  // Probability that a given (user, reason) pair is "cursed" and the weight
  // multiplier applied when it is.
  double cursed_pair_prob = 0.006;
  double cursed_pair_multiplier = 40.0;
  // Hard cap on failing attempts (the scheduler may stop earlier via its
  // retry policy).
  int max_failure_trials = 6;
  // Global scale on failure probability (ablations set this to explore
  // failure-handling design implications).
  double failure_scale = 1.0;
};

class FailureInjector {
 public:
  explicit FailureInjector(FailureInjectorConfig config = {});

  // Deterministic plan for `job` (same result for the same seed and job id).
  FailurePlan PlanFor(const JobSpec& job) const;

  const FailureInjectorConfig& config() const { return config_; }

 private:
  FailureReason SampleReason(const JobSpec& job, Rng& rng) const;
  SimDuration SampleRtf(const FailureReasonInfo& info, SimDuration planned,
                        int num_gpus, Rng& rng) const;
  double UserReasonMultiplier(UserId user, FailureReason reason) const;

  FailureInjectorConfig config_;
  // Precomputed reason weights per demand bucket: paper_trials scaled by the
  // reason's demand-column share.
  std::array<std::array<double, kNumFailureReasons>, kNumDemandBuckets> bucket_weights_;
};

}  // namespace philly

#endif  // SRC_FAILURE_FAILURE_INJECTOR_H_
