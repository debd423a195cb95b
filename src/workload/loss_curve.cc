#include "src/workload/loss_curve.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/distributions.h"
#include "src/common/hash.h"

namespace philly {
uint64_t LossCurveSeed(JobId id) {
  return Mix64(static_cast<uint64_t>(id) ^ 0x10552CA1B5EEDull);
}

LossCurve::LossCurve(const LossCurveParams& params, int num_epochs, uint64_t seed)
    : params_(params), num_epochs_(num_epochs), seed_(seed) {
  assert(num_epochs > 0);
}

double LossCurve::NoiseAt(int epoch) const {
  const uint64_t h = Mix64(seed_ ^ (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(epoch)));
  // Map to (0, 1) strictly, then to a standard normal.
  const double u = (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
  return Probit(u);
}

double LossCurve::LossAt(int epoch) const {
  assert(epoch >= 1 && epoch <= num_epochs_);
  const double e = static_cast<double>(epoch);
  const double trend = params_.floor + params_.amplitude * std::exp(-params_.decay_rate * e) -
                       params_.end_drift * e / static_cast<double>(num_epochs_);
  return trend + params_.noise_sigma * NoiseAt(epoch);
}

int LossCurve::BestEpoch(int executed_epochs) const {
  executed_epochs = std::clamp(executed_epochs, 1, num_epochs_);
  int best = 1;
  double best_loss = LossAt(1);
  for (int e = 2; e <= executed_epochs; ++e) {
    const double l = LossAt(e);
    if (l < best_loss) {
      best_loss = l;
      best = e;
    }
  }
  return best;
}

int LossCurve::FirstEpochWithin(double rel_delta, int executed_epochs) const {
  executed_epochs = std::clamp(executed_epochs, 1, num_epochs_);
  double best_loss = LossAt(1);
  for (int e = 2; e <= executed_epochs; ++e) {
    best_loss = std::min(best_loss, LossAt(e));
  }
  const double threshold = best_loss + std::abs(best_loss) * rel_delta;
  for (int e = 1; e <= executed_epochs; ++e) {
    if (LossAt(e) <= threshold) {
      return e;
    }
  }
  return executed_epochs;
}

}  // namespace philly
