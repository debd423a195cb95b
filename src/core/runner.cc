#include "src/core/runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/common/strings.h"

namespace philly {
namespace {

// `text` as a T of at least `min`; otherwise prints what `name` expected and
// exits 2.
template <typename T>
T KnobOrDie(const char* name, const char* text, T min, const char* expected) {
  T value{};
  if (!ParseNumber(text, &value) || value < min) {
    std::fprintf(stderr, "%s='%s' is invalid: expected %s\n", name, text, expected);
    std::exit(2);
  }
  return value;
}

bool Unset(const char* env) { return env == nullptr || *env == '\0'; }

}  // namespace

int PositiveIntFromEnv(const char* name, int fallback) {
  const char* env = std::getenv(name);
  return Unset(env) ? fallback : KnobOrDie(name, env, 1, "a positive integer");
}

uint64_t U64FromEnv(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  return Unset(env) ? fallback : KnobOrDie<uint64_t>(name, env, 0, "an unsigned integer");
}

int PositiveIntArg(int argc, char** argv, int index, const char* name, int fallback) {
  return index < argc ? KnobOrDie(name, argv[index], 1, "a positive integer") : fallback;
}

uint64_t U64Arg(int argc, char** argv, int index, const char* name, uint64_t fallback) {
  return index < argc ? KnobOrDie<uint64_t>(name, argv[index], 0, "an unsigned integer")
                      : fallback;
}

int DefaultPoolThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return PositiveIntFromEnv("PHILLY_BENCH_THREADS", hw > 0 ? hw : 1);
}

ExperimentPool::ExperimentPool(int num_threads)
    : num_threads_(num_threads > 0 ? num_threads : DefaultPoolThreads()) {}

void ExperimentPool::ParallelFor(int n, const std::function<void(int)>& fn) const {
  if (n <= 0) {
    return;
  }
  const int workers = std::min(num_threads_, n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<int> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back(worker);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

std::vector<ExperimentRun> ExperimentPool::RunMany(
    std::vector<ExperimentConfig> configs) const {
  // Shared metrics/profiler sinks are thread-safe and may appear in every
  // config, but an EventLog or ClusterTimeSeries belongs to exactly one run:
  // concurrent appends from two simulations would interleave (and race).
  // Catch the misuse before it corrupts a stream.
  for (size_t i = 0; i < configs.size(); ++i) {
    const EventLog* log = configs[i].simulation.obs.event_log;
    const ClusterTimeSeries* ts = configs[i].simulation.obs.timeseries;
    for (size_t j = i + 1; j < configs.size(); ++j) {
      if (log != nullptr && configs[j].simulation.obs.event_log == log) {
        throw std::invalid_argument(
            "ExperimentPool::RunMany: the same EventLog is attached to more "
            "than one config; event logs are per-run");
      }
      if (ts != nullptr && configs[j].simulation.obs.timeseries == ts) {
        throw std::invalid_argument(
            "ExperimentPool::RunMany: the same ClusterTimeSeries is attached "
            "to more than one config; telemetry recorders are per-run");
      }
    }
  }
  std::vector<ExperimentRun> runs(configs.size());
  ParallelFor(static_cast<int>(configs.size()), [&](int i) {
    runs[static_cast<size_t>(i)] =
        RunExperiment(configs[static_cast<size_t>(i)]);
  });
  return runs;
}

std::vector<ExperimentRun> ExperimentPool::RunSeeds(
    const ExperimentConfig& base, const std::vector<uint64_t>& seeds) const {
  return RunMany(ConfigsForSeeds(base, seeds));
}

std::vector<ExperimentConfig> ConfigsForSeeds(const ExperimentConfig& base,
                                              const std::vector<uint64_t>& seeds) {
  std::vector<ExperimentConfig> configs;
  configs.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    ExperimentConfig config = base;
    config.workload.seed = seed;
    config.simulation.seed = seed;
    configs.push_back(std::move(config));
  }
  return configs;
}

}  // namespace philly
