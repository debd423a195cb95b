// Parallel experiment runner: fans independent `RunExperiment` calls across a
// thread pool so multi-seed/multi-config sweeps cost one simulation of
// wall-clock instead of N.
//
// Threading/determinism contract:
//   * Each task owns its `ExperimentConfig` and runs a fully independent
//     `WorkloadGenerator` + `ClusterSimulation` (all RNGs and caches are
//     per-instance state; nothing in the library mutates globals).
//   * Results are collected by task index, never by completion order, so
//     `RunMany(configs)[i] == RunExperiment(configs[i])` byte-for-byte
//     regardless of thread count or OS scheduling.
//   * Worker count defaults to `PHILLY_BENCH_THREADS` if set, otherwise
//     `std::thread::hardware_concurrency()`.

#ifndef SRC_CORE_RUNNER_H_
#define SRC_CORE_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/experiment.h"

namespace philly {

// Strict environment-knob parsing (ParseNumber, src/common/strings.h). Unset
// (or empty) variables return the fallback; malformed or out-of-range values
// print a clear message to stderr and exit(2) — silently treating garbage as
// 0 yields empty workloads and vacuously passing shape checks.
int PositiveIntFromEnv(const char* name, int fallback);
uint64_t U64FromEnv(const char* name, uint64_t fallback);
// The same for the positional argument argv[index], named `name` in the
// message; `fallback` when argc <= index.
int PositiveIntArg(int argc, char** argv, int index, const char* name, int fallback);
uint64_t U64Arg(int argc, char** argv, int index, const char* name, uint64_t fallback);

// Worker count for pools constructed without an explicit thread count:
// `PHILLY_BENCH_THREADS` if set (must be a positive integer), else
// `std::thread::hardware_concurrency()` (at least 1).
int DefaultPoolThreads();

class ExperimentPool {
 public:
  // `num_threads <= 0` falls back to DefaultPoolThreads().
  explicit ExperimentPool(int num_threads = 0);

  int num_threads() const { return num_threads_; }

  // Invokes fn(0) .. fn(n-1), each exactly once, fanned across the pool.
  // `fn` must be safe to call concurrently for distinct indices. Blocks until
  // all indices complete; the first exception thrown by any task is
  // rethrown after the pool drains.
  void ParallelFor(int n, const std::function<void(int)>& fn) const;

  // Runs every config and returns the runs in config order.
  std::vector<ExperimentRun> RunMany(std::vector<ExperimentConfig> configs) const;

  // Convenience: one run per seed, applying each seed to both the workload
  // and the simulation of a copy of `base`. Results are in seed order.
  std::vector<ExperimentRun> RunSeeds(const ExperimentConfig& base,
                                      const std::vector<uint64_t>& seeds) const;

 private:
  int num_threads_ = 1;
};

// The per-seed configs RunSeeds runs, exposed for callers that need to tweak
// them further before RunMany.
std::vector<ExperimentConfig> ConfigsForSeeds(const ExperimentConfig& base,
                                              const std::vector<uint64_t>& seeds);

}  // namespace philly

#endif  // SRC_CORE_RUNNER_H_
