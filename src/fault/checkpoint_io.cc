#include "src/fault/checkpoint_io.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace philly {
namespace {

// Below this many GB a write counts as drained: completion events land on the
// integral-second grid (ceil), so the fluid model can be left with a dust
// residue of rounding error when the event fires.
constexpr double kDrainedEpsilonGb = 1e-6;

}  // namespace

SimDuration DalyOptimalPeriod(double write_cost_seconds, double mtbf_seconds) {
  if (!(write_cost_seconds > 0.0) || !(mtbf_seconds > 0.0) ||
      !std::isfinite(write_cost_seconds) || !std::isfinite(mtbf_seconds)) {
    return 0;
  }
  const double tau = std::sqrt(2.0 * write_cost_seconds * mtbf_seconds);
  const auto period = static_cast<SimDuration>(std::llround(tau));
  return std::clamp(period, kDalyMinPeriod, kDalyMaxPeriod);
}

CheckpointIoModel::CheckpointIoModel(double bandwidth_gbps, int num_racks)
    : bandwidth_(bandwidth_gbps),
      racks_(static_cast<size_t>(std::max(0, num_racks))) {
  assert(bandwidth_ > 0.0);
}

void CheckpointIoModel::Advance(RackState& rack, SimTime now) {
  assert(now >= rack.last_update);
  if (!rack.writers.empty() && now > rack.last_update) {
    const double drained = static_cast<double>(now - rack.last_update) *
                           bandwidth_ /
                           static_cast<double>(rack.writers.size());
    for (Writer& writer : rack.writers) {
      writer.remaining_gb -= drained;
    }
  }
  rack.last_update = now;
}

void CheckpointIoModel::BeginWrite(RackId rack, JobId job, double size_gb,
                                   SimTime now) {
  assert(rack >= 0 && static_cast<size_t>(rack) < racks_.size());
  assert(size_gb > 0.0);
  RackState& state = racks_[static_cast<size_t>(rack)];
  Advance(state, now);
  state.writers.push_back({job, size_gb});
}

void CheckpointIoModel::AbortWrite(RackId rack, JobId job, SimTime now) {
  assert(rack >= 0 && static_cast<size_t>(rack) < racks_.size());
  RackState& state = racks_[static_cast<size_t>(rack)];
  Advance(state, now);
  const auto it =
      std::find_if(state.writers.begin(), state.writers.end(),
                   [job](const Writer& w) { return w.job == job; });
  assert(it != state.writers.end());
  state.writers.erase(it);
}

int CheckpointIoModel::Writers(RackId rack) const {
  assert(rack >= 0 && static_cast<size_t>(rack) < racks_.size());
  return static_cast<int>(racks_[static_cast<size_t>(rack)].writers.size());
}

std::optional<SimTime> CheckpointIoModel::NextCompletion(RackId rack,
                                                         SimTime now) {
  assert(rack >= 0 && static_cast<size_t>(rack) < racks_.size());
  RackState& state = racks_[static_cast<size_t>(rack)];
  Advance(state, now);
  if (state.writers.empty()) {
    return std::nullopt;
  }
  double min_remaining = state.writers.front().remaining_gb;
  for (const Writer& writer : state.writers) {
    min_remaining = std::min(min_remaining, writer.remaining_gb);
  }
  if (min_remaining <= kDrainedEpsilonGb) {
    // Already drained (event-grid dust): complete at the next grid point.
    return now;
  }
  const double seconds = min_remaining *
                         static_cast<double>(state.writers.size()) / bandwidth_;
  return now + std::max<SimDuration>(
                   1, static_cast<SimDuration>(std::ceil(seconds)));
}

std::vector<JobId> CheckpointIoModel::CollectCompleted(RackId rack,
                                                       SimTime now) {
  assert(rack >= 0 && static_cast<size_t>(rack) < racks_.size());
  RackState& state = racks_[static_cast<size_t>(rack)];
  Advance(state, now);
  std::vector<JobId> done;
  auto keep = state.writers.begin();
  for (Writer& writer : state.writers) {
    if (writer.remaining_gb <= kDrainedEpsilonGb) {
      done.push_back(writer.job);
    } else {
      *keep++ = writer;
    }
  }
  state.writers.erase(keep, state.writers.end());
  return done;
}

}  // namespace philly
