// Tests for the parallel experiment runner: the determinism contract
// (RunMany/RunSeeds results are byte-identical to serial RunExperiment for
// any thread count), ParallelFor coverage and error propagation, and the
// strict environment-knob parsing.
//
// The determinism test carries the `tsan` ctest label: build with
// -DPHILLY_SANITIZE=thread and run `ctest -L tsan` to prove the pool is
// data-race free.

#include "src/core/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

namespace philly {
namespace {

void ExpectJobRecordsEqual(const JobRecord& a, const JobRecord& b) {
  EXPECT_EQ(a.spec.id, b.spec.id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.started_out_of_order, b.started_out_of_order);
  EXPECT_EQ(a.out_of_order_benign, b.out_of_order_benign);
  EXPECT_EQ(a.overtaken, b.overtaken);
  EXPECT_EQ(a.executed_epochs, b.executed_epochs);
  EXPECT_EQ(a.GpuSeconds(), b.GpuSeconds());

  ASSERT_EQ(a.waits.size(), b.waits.size());
  for (size_t i = 0; i < a.waits.size(); ++i) {
    EXPECT_EQ(a.waits[i].ready_time, b.waits[i].ready_time);
    EXPECT_EQ(a.waits[i].wait, b.waits[i].wait);
    EXPECT_EQ(a.waits[i].fair_share_time, b.waits[i].fair_share_time);
    EXPECT_EQ(a.waits[i].fragmentation_time, b.waits[i].fragmentation_time);
    EXPECT_EQ(a.waits[i].sched_attempts, b.waits[i].sched_attempts);
  }

  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    const AttemptRecord& x = a.attempts[i];
    const AttemptRecord& y = b.attempts[i];
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.preempted, y.preempted);
    EXPECT_EQ(x.machine_fault, y.machine_fault);
    EXPECT_EQ(x.prerun, y.prerun);
    EXPECT_EQ(x.true_reason, y.true_reason);
    EXPECT_EQ(x.log_tail, y.log_tail);
    ASSERT_EQ(x.placement.shards.size(), y.placement.shards.size());
    for (size_t s = 0; s < x.placement.shards.size(); ++s) {
      EXPECT_EQ(x.placement.shards[s].server, y.placement.shards[s].server);
      EXPECT_EQ(x.placement.shards[s].gpus, y.placement.shards[s].gpus);
    }
  }

  ASSERT_EQ(a.util_segments.size(), b.util_segments.size());
  for (size_t i = 0; i < a.util_segments.size(); ++i) {
    EXPECT_EQ(a.util_segments[i].expected_util, b.util_segments[i].expected_util);
    EXPECT_EQ(a.util_segments[i].duration, b.util_segments[i].duration);
    EXPECT_EQ(a.util_segments[i].num_servers, b.util_segments[i].num_servers);
  }
}

void ExpectRunsEqual(const ExperimentRun& a, const ExperimentRun& b) {
  EXPECT_EQ(a.num_jobs, b.num_jobs);
  EXPECT_EQ(a.result.scheduling_decisions, b.result.scheduling_decisions);
  EXPECT_EQ(a.result.out_of_order_decisions, b.result.out_of_order_decisions);
  EXPECT_EQ(a.result.out_of_order_benign, b.result.out_of_order_benign);
  EXPECT_EQ(a.result.preemptions, b.result.preemptions);
  EXPECT_EQ(a.result.migrations, b.result.migrations);
  EXPECT_EQ(a.result.priority_preemptions, b.result.priority_preemptions);
  EXPECT_EQ(a.result.prerun_jobs, b.result.prerun_jobs);
  EXPECT_EQ(a.result.prerun_catches, b.result.prerun_catches);
  EXPECT_EQ(a.result.prerun_gpu_seconds, b.result.prerun_gpu_seconds);
  EXPECT_EQ(a.result.machine_faults_injected, b.result.machine_faults_injected);
  EXPECT_EQ(a.result.machine_fault_server_downs, b.result.machine_fault_server_downs);
  EXPECT_EQ(a.result.machine_fault_kills, b.result.machine_fault_kills);
  EXPECT_EQ(a.result.machine_fault_lost_gpu_seconds,
            b.result.machine_fault_lost_gpu_seconds);

  ASSERT_EQ(a.result.occupancy_snapshots.size(), b.result.occupancy_snapshots.size());
  for (size_t i = 0; i < a.result.occupancy_snapshots.size(); ++i) {
    const auto& x = a.result.occupancy_snapshots[i];
    const auto& y = b.result.occupancy_snapshots[i];
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.occupancy, y.occupancy);
    EXPECT_EQ(x.empty_server_fraction, y.empty_server_fraction);
    EXPECT_EQ(x.racks_with_empty_servers, y.racks_with_empty_servers);
  }

  ASSERT_EQ(a.result.jobs.size(), b.result.jobs.size());
  for (size_t i = 0; i < a.result.jobs.size(); ++i) {
    ExpectJobRecordsEqual(a.result.jobs[i], b.result.jobs[i]);
  }
}

// The core contract: RunSeeds through the pool must reproduce serial
// RunExperiment byte-for-byte — full job records, not just summary
// statistics — no matter how many worker threads execute the tasks.
TEST(ExperimentPoolTest, RunSeedsMatchesSerialForAnyThreadCount) {
  const ExperimentConfig base = ExperimentConfig::BenchScale(1);
  const std::vector<uint64_t> seeds = {42, 7, 99};

  std::vector<ExperimentRun> expected;
  for (const ExperimentConfig& config : ConfigsForSeeds(base, seeds)) {
    expected.push_back(RunExperiment(config));
  }

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> thread_counts = {1, 2, hw > 0 ? hw : 1};
  for (const int threads : thread_counts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ExperimentPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const std::vector<ExperimentRun> runs = pool.RunSeeds(base, seeds);
    ASSERT_EQ(runs.size(), expected.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE("seed=" + std::to_string(seeds[i]));
      ExpectRunsEqual(runs[i], expected[i]);
    }
  }
}

TEST(ExperimentPoolTest, ConfigsForSeedsSetBothSeeds) {
  ExperimentConfig base = ExperimentConfig::BenchScale(1, 5);
  const auto configs = ConfigsForSeeds(base, {11, 22});
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(configs[0].workload.seed, 11u);
  EXPECT_EQ(configs[0].simulation.seed, 11u);
  EXPECT_EQ(configs[1].workload.seed, 22u);
  EXPECT_EQ(configs[1].simulation.seed, 22u);
}

TEST(ExperimentPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr int kTasks = 100;
  std::vector<std::atomic<int>> counts(kTasks);
  const ExperimentPool pool(4);
  pool.ParallelFor(kTasks, [&](int i) { counts[static_cast<size_t>(i)]++; });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(counts[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ExperimentPoolTest, ParallelForHandlesZeroAndNegativeCounts) {
  const ExperimentPool pool(4);
  pool.ParallelFor(0, [](int) { FAIL() << "must not be called"; });
  pool.ParallelFor(-3, [](int) { FAIL() << "must not be called"; });
}

TEST(ExperimentPoolTest, ParallelForPropagatesTaskExceptions) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ExperimentPool pool(threads);
    EXPECT_THROW(pool.ParallelFor(8,
                                  [](int i) {
                                    if (i == 5) {
                                      throw std::runtime_error("task failure");
                                    }
                                  }),
                 std::runtime_error);
  }
}

TEST(RunnerEnvTest, UnsetAndEmptyVariablesReturnFallback) {
  unsetenv("PHILLY_TEST_KNOB");
  EXPECT_EQ(PositiveIntFromEnv("PHILLY_TEST_KNOB", 7), 7);
  EXPECT_EQ(U64FromEnv("PHILLY_TEST_KNOB", 99u), 99u);
  setenv("PHILLY_TEST_KNOB", "", 1);
  EXPECT_EQ(PositiveIntFromEnv("PHILLY_TEST_KNOB", 7), 7);
  EXPECT_EQ(U64FromEnv("PHILLY_TEST_KNOB", 99u), 99u);
  unsetenv("PHILLY_TEST_KNOB");
}

TEST(RunnerEnvTest, ValidValuesParse) {
  setenv("PHILLY_TEST_KNOB", "12", 1);
  EXPECT_EQ(PositiveIntFromEnv("PHILLY_TEST_KNOB", 7), 12);
  EXPECT_EQ(U64FromEnv("PHILLY_TEST_KNOB", 99u), 12u);
  setenv("PHILLY_TEST_KNOB", "18446744073709551615", 1);  // UINT64_MAX
  EXPECT_EQ(U64FromEnv("PHILLY_TEST_KNOB", 99u), UINT64_MAX);
  unsetenv("PHILLY_TEST_KNOB");
}

// atoi-style silent acceptance of garbage is exactly what these knobs used to
// do; now a malformed value must abort with a message naming the variable.
TEST(RunnerEnvDeathTest, GarbageValuesExitWithMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  setenv("PHILLY_TEST_KNOB", "12abc", 1);
  EXPECT_EXIT(PositiveIntFromEnv("PHILLY_TEST_KNOB", 7),
              ::testing::ExitedWithCode(2), "PHILLY_TEST_KNOB='12abc' is invalid");
  EXPECT_EXIT(U64FromEnv("PHILLY_TEST_KNOB", 7u), ::testing::ExitedWithCode(2),
              "PHILLY_TEST_KNOB='12abc' is invalid");
  setenv("PHILLY_TEST_KNOB", "banana", 1);
  EXPECT_EXIT(PositiveIntFromEnv("PHILLY_TEST_KNOB", 7),
              ::testing::ExitedWithCode(2), "expected a positive integer");
  setenv("PHILLY_TEST_KNOB", "0", 1);
  EXPECT_EXIT(PositiveIntFromEnv("PHILLY_TEST_KNOB", 7),
              ::testing::ExitedWithCode(2), "expected a positive integer");
  setenv("PHILLY_TEST_KNOB", "-3", 1);
  EXPECT_EXIT(PositiveIntFromEnv("PHILLY_TEST_KNOB", 7),
              ::testing::ExitedWithCode(2), "expected a positive integer");
  EXPECT_EXIT(U64FromEnv("PHILLY_TEST_KNOB", 7u), ::testing::ExitedWithCode(2),
              "expected an unsigned integer");
  unsetenv("PHILLY_TEST_KNOB");
}

}  // namespace
}  // namespace philly
