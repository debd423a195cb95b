// Synthetic training-loss curves (drives Figure 8 and §4.1).
//
// The curve is deterministic given (params, num_epochs, seed): the noise term
// at epoch e is derived from a hash of (seed, e). Determinism matters because
// the same curve is evaluated twice — once by the job-log synthesizer that
// prints per-epoch loss lines, and once by tests validating the analysis
// pipeline against ground truth.

#ifndef SRC_WORKLOAD_LOSS_CURVE_H_
#define SRC_WORKLOAD_LOSS_CURVE_H_

#include <cstdint>

#include "src/workload/job.h"

namespace philly {

// Canonical noise seed for a job's loss curve. Both the log synthesizer and
// the analysis pipeline must use this so the curves agree.
uint64_t LossCurveSeed(JobId id);

class LossCurve {
 public:
  LossCurve(const LossCurveParams& params, int num_epochs, uint64_t seed);

  // Training loss after epoch `e`, e in [1, num_epochs].
  double LossAt(int epoch) const;

  // Epoch (in [1, executed_epochs]) attaining the minimum loss.
  int BestEpoch(int executed_epochs) const;

  // First epoch whose loss is within `rel_delta` (relative, e.g. 0.001 for
  // 0.1%) of the minimum over the executed prefix.
  int FirstEpochWithin(double rel_delta, int executed_epochs) const;

 private:
  double NoiseAt(int epoch) const;

  LossCurveParams params_;
  int num_epochs_;
  uint64_t seed_;
};

}  // namespace philly

#endif  // SRC_WORKLOAD_LOSS_CURVE_H_
