// Job model: the unit of work submitted to the cluster.
//
// A JobSpec captures everything exogenous about a training job — who submitted
// it, when, how many GPUs, which model family, its intended number of epochs
// and duration, and its intrinsic outcome propensities. Everything endogenous
// (queueing delay, placement, utilization, failures, retries, final status)
// is produced by the simulation and recorded in logs.

#ifndef SRC_WORKLOAD_JOB_H_
#define SRC_WORKLOAD_JOB_H_

#include <cstdint>
#include <string>

#include "src/cluster/cluster.h"
#include "src/common/sim_time.h"

namespace philly {

using UserId = int32_t;
using VcId = int32_t;

// Final status of a job (§2.3): passed = completed successfully, killed =
// terminated by the user, unsuccessful = failed repeatedly until retries were
// exhausted.
enum class JobStatus {
  kPassed,
  kKilled,
  kUnsuccessful,
};

std::string_view ToString(JobStatus status);

// GPU-demand buckets used throughout the paper's figures (Fig 2, 3, 9;
// Table 2).
enum class SizeBucket {
  k1Gpu,
  k2To4Gpu,
  k5To8Gpu,
  kGt8Gpu,
};

inline constexpr int kNumSizeBuckets = 4;

SizeBucket BucketOf(int num_gpus);
std::string_view ToString(SizeBucket bucket);

// Representative job sizes used in Fig 5 / Table 3 / Table 5 ("we use these
// job sizes as representative of small, medium and large jobs").
inline constexpr int kRepresentativeSizes[] = {1, 4, 8, 16};

// Model families in the workload mix (§2.1: CNNs, LSTMs, RNNs across image,
// speech, NLP production groups). Families differ in their base GPU
// utilization prior and communication intensity.
enum class ModelFamily {
  kResNet,       // image classification CNN (the paper's controlled experiment)
  kVggLike,      // heavier CNN, memory bound
  kLstm,         // speech/NLP recurrent, lower SM occupancy
  kRnnLanguage,  // language model RNN
  kEmbedding,    // sparse embedding-dominated, I/O bound
};

inline constexpr int kNumModelFamilies = 5;

std::string_view ToString(ModelFamily family);

// Intrinsic user intent for a job, decided at submission time by the
// generator. Whether the job actually passes also depends on injected
// failures and the retry policy.
enum class IntrinsicOutcome {
  kRunToCompletion,  // user lets it finish
  kKilledByUser,     // user will terminate it part-way
};

// Loss-curve parameterization (drives Fig 8). The synthesized training loss at
// epoch e in [1, num_epochs] is
//   loss(e) = floor + amplitude * exp(-decay_rate * e) - end_drift * e / E
//             + noise_sigma * N(0,1)
// The saturating exponential gives the "most improvement early" shape; the
// small monotone end_drift (kept below the 0.1% threshold so it does not
// dominate the within-0.1% epoch) keeps clean jobs improving to the end, so
// ~80% of them attain their minimum in the final epochs unless noise_sigma
// dominates (§4.1).
struct LossCurveParams {
  double floor = 1.0;
  double amplitude = 2.0;
  double decay_rate = 0.05;
  double end_drift = 0.0005;
  double noise_sigma = 0.0002;

  bool operator==(const LossCurveParams&) const = default;
};

struct JobSpec {
  JobId id = kNoJob;
  VcId vc = 0;
  UserId user = 0;
  SimTime submit_time = 0;
  int num_gpus = 1;
  ModelFamily model = ModelFamily::kResNet;
  int batch_size = 32;

  // Intended clean run length, end to end, if nothing fails and the user does
  // not kill it.
  SimDuration planned_duration = Minutes(60);
  int planned_epochs = 50;

  IntrinsicOutcome intrinsic = IntrinsicOutcome::kRunToCompletion;
  // For kKilledByUser: fraction of planned_duration after which the user
  // terminates the job.
  double kill_fraction = 1.0;

  // Per-job base GPU utilization in (0, 1]: what this job achieves on a single
  // dedicated server before distribution/interference penalties.
  double base_utilization = 0.6;

  // Whether this job's framework prints per-epoch loss lines to stdout (only
  // ~2.6% of jobs in the paper exposed convergence information).
  bool logs_convergence = false;
  LossCurveParams loss_curve;

  SimDuration EpochDuration() const {
    return planned_epochs > 0 ? planned_duration / planned_epochs : planned_duration;
  }

  bool operator==(const JobSpec&) const = default;
};

}  // namespace philly

#endif  // SRC_WORKLOAD_JOB_H_
