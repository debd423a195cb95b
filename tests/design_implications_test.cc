// Tests for the §5 design-implication mechanisms: migration defragmentation,
// the predictive retry policy, and the single-GPU pre-run pool.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/failure/retry_policy.h"
#include "src/sched/simulation.h"

namespace philly {
namespace {

struct SimSetup {
  WorkloadConfig workload;
  SimulationConfig simulation;
  std::vector<JobSpec> jobs;

  explicit SimSetup(int days = 2, uint64_t seed = 19,
                 SchedulerConfig sched = SchedulerConfig::Philly()) {
    workload = WorkloadConfig::Scaled(days, seed);
    simulation.vcs = workload.vcs;
    simulation.scheduler = std::move(sched);
    simulation.seed = seed;
    jobs = WorkloadGenerator(workload).Generate();
  }
  SimulationResult Run() {
    ClusterSimulation sim(simulation, jobs);
    return sim.Run();
  }
};

// ---------------------------------------------------------------- predictive

TEST(PredictiveRetryPolicyTest, BlacklistsRepeatingPairs) {
  RetryPolicy policy(RetryPolicyKind::kPredictive);
  const UserId user = 7;
  EXPECT_TRUE(policy.ShouldRetry(user, FailureReason::kCpuOutOfMemory, 0));
  policy.ObserveFailure(user, FailureReason::kCpuOutOfMemory);
  policy.ObserveFailure(user, FailureReason::kCpuOutOfMemory);
  EXPECT_TRUE(policy.ShouldRetry(user, FailureReason::kCpuOutOfMemory, 0));
  policy.ObserveFailure(user, FailureReason::kCpuOutOfMemory);
  EXPECT_FALSE(policy.ShouldRetry(user, FailureReason::kCpuOutOfMemory, 0));
  // Other users and other reasons are unaffected.
  EXPECT_TRUE(policy.ShouldRetry(user + 1, FailureReason::kCpuOutOfMemory, 0));
  EXPECT_TRUE(policy.ShouldRetry(user, FailureReason::kMpiError, 0));
}

TEST(PredictiveRetryPolicyTest, RespectsRetryBudget) {
  RetryPolicy policy(RetryPolicyKind::kPredictive);
  EXPECT_TRUE(policy.ShouldRetry(1, FailureReason::kMpiError, kMaxRetries - 1));
  EXPECT_FALSE(policy.ShouldRetry(1, FailureReason::kMpiError, kMaxRetries));
}

TEST(PredictiveRetryPolicyTest, ReducesWastedGpuTimeInSimulation) {
  SchedulerConfig fixed = SchedulerConfig::Philly();
  SchedulerConfig predictive = SchedulerConfig::Philly();
  predictive.retry_policy = SchedulerConfig::RetryPolicyKind::kPredictive;
  const auto wasted = [](const SimulationResult& result) {
    double gpu = 0.0;
    for (const auto& job : result.jobs) {
      for (const auto& attempt : job.attempts) {
        if (attempt.failed) {
          gpu += attempt.GpuTime();
        }
      }
    }
    return gpu;
  };
  const double fixed_waste = wasted(SimSetup(2, 19, fixed).Run());
  const double predictive_waste = wasted(SimSetup(2, 19, predictive).Run());
  EXPECT_LT(predictive_waste, fixed_waste);
}

// ------------------------------------------------------------------- prerun

TEST(PrerunPoolTest, CatchesEarlyFailuresOnOneGpu) {
  SchedulerConfig sched = SchedulerConfig::Philly();
  sched.enable_prerun_pool = true;
  SimSetup setup(2, 19, sched);
  const auto result = setup.Run();
  EXPECT_GT(result.prerun_jobs, 0);
  EXPECT_GT(result.prerun_catches, 0);
  EXPECT_GT(result.prerun_gpu_seconds, 0.0);
  // Caught attempts are 1-GPU pre-runs with logs and empty placements.
  int caught = 0;
  for (const auto& job : result.jobs) {
    for (const auto& attempt : job.attempts) {
      if (attempt.prerun) {
        EXPECT_GT(job.spec.num_gpus, 1);
        EXPECT_TRUE(attempt.placement.Empty());
        EXPECT_DOUBLE_EQ(attempt.GpuTime(),
                         static_cast<double>(attempt.Duration()));
        if (attempt.failed) {
          ++caught;
          EXPECT_FALSE(attempt.log_tail.empty());
        }
      }
    }
  }
  EXPECT_EQ(caught, result.prerun_catches);
}

TEST(PrerunPoolTest, SavesMultiGpuFailureTime) {
  SchedulerConfig baseline = SchedulerConfig::Philly();
  SchedulerConfig prerun = SchedulerConfig::Philly();
  prerun.enable_prerun_pool = true;
  const auto multi_gpu_failure_time = [](const SimulationResult& result) {
    double gpu = 0.0;
    for (const auto& job : result.jobs) {
      if (job.spec.num_gpus <= 1) {
        continue;
      }
      for (const auto& attempt : job.attempts) {
        if (attempt.failed && !attempt.prerun && !attempt.preempted) {
          gpu += attempt.GpuTime();
        }
      }
    }
    return gpu;
  };
  const auto base = SimSetup(2, 19, baseline).Run();
  const auto with_pool = SimSetup(2, 19, prerun).Run();
  // Gang-scale failure time for multi-GPU jobs drops: first deterministic
  // failures are absorbed by the pool at 1-GPU cost.
  EXPECT_LT(multi_gpu_failure_time(with_pool), multi_gpu_failure_time(base));
  // And the pool's own GPU time is far below the savings' scale.
  EXPECT_LT(with_pool.prerun_gpu_seconds,
            multi_gpu_failure_time(base));
}

TEST(PrerunPoolTest, DisabledByDefault) {
  SimSetup setup(1, 19);
  const auto result = setup.Run();
  EXPECT_EQ(result.prerun_jobs, 0);
  for (const auto& job : result.jobs) {
    for (const auto& attempt : job.attempts) {
      EXPECT_FALSE(attempt.prerun);
    }
  }
}

// --------------------------------------------------------- priority preempt

TEST(PriorityPreemptionTest, SrtfSuspendsLongRunningJobs) {
  SimSetup setup(2, 19, SchedulerConfig::Optimus());
  const auto result = setup.Run();
  EXPECT_GT(result.priority_preemptions, 0);
  // Suspended jobs must not lose progress: passed clean jobs still complete
  // their planned duration across attempts.
  for (const auto& job : result.jobs) {
    if (job.status != JobStatus::kPassed ||
        job.spec.intrinsic != IntrinsicOutcome::kRunToCompletion) {
      continue;
    }
    SimDuration clean = 0;
    for (const auto& attempt : job.attempts) {
      if (!attempt.failed && !attempt.prerun) {
        clean += attempt.Duration();
      }
    }
    EXPECT_GE(clean, job.spec.planned_duration);
  }
}

TEST(PriorityPreemptionTest, LasBandsDampPerJobChurn) {
  // Tiresias's discretization exists to stop continuous LAS from suspending
  // the *same* job over and over (every sliver of attained service makes it
  // the worst-priority candidate again). Wide bands must cap the maximum
  // suspensions any single job suffers.
  const auto max_suspensions = [](const SimulationResult& result) {
    int max_per_job = 0;
    for (const auto& job : result.jobs) {
      int suspensions = 0;
      for (size_t i = 0; i + 1 < job.attempts.size(); ++i) {
        suspensions += !job.attempts[i].failed && !job.attempts[i].prerun;
      }
      max_per_job = std::max(max_per_job, suspensions);
    }
    return max_per_job;
  };
  SchedulerConfig fine = SchedulerConfig::Tiresias();
  fine.las_band_gpu_hours = 0.01;
  SchedulerConfig coarse = SchedulerConfig::Tiresias();
  coarse.las_band_gpu_hours = 64.0;
  const auto fine_result = SimSetup(2, 19, fine).Run();
  const auto coarse_result = SimSetup(2, 19, coarse).Run();
  EXPECT_GT(fine_result.priority_preemptions, 0);
  EXPECT_GT(coarse_result.priority_preemptions, 0);
  EXPECT_LT(max_suspensions(coarse_result), max_suspensions(fine_result) / 2);
}

TEST(PriorityPreemptionTest, DisabledForPhilly) {
  SimSetup setup(1, 19, SchedulerConfig::Philly());
  const auto result = setup.Run();
  EXPECT_EQ(result.priority_preemptions, 0);
}

TEST(PriorityPreemptionTest, ImprovesShortJobLatencyUnderLas) {
  SimSetup fifo_setup(2, 23, SchedulerConfig::Fifo());
  SimSetup las_setup(2, 23, SchedulerConfig::Tiresias());
  const auto measure_short_queue = [](const SimulationResult& result) {
    double sum = 0.0;
    int64_t n = 0;
    for (const auto& job : result.jobs) {
      if (job.spec.planned_duration <= Hours(1)) {
        sum += static_cast<double>(job.InitialQueueDelay());
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  EXPECT_LE(measure_short_queue(las_setup.Run()),
            measure_short_queue(fifo_setup.Run()));
}

// ---------------------------------------------------------------- migration

TEST(MigrationTest, DefragmentsWithoutLosingWork) {
  SchedulerConfig sched = SchedulerConfig::Philly();
  sched.placer.pack_small_jobs = false;  // create fragmentation to clean up
  sched.enable_migration = true;
  sched.migration_period = Minutes(20);
  SimSetup setup(2, 19, sched);
  const auto result = setup.Run();
  EXPECT_GT(result.migrations, 0);
  // Migrated jobs appear as multi-attempt jobs whose non-final attempts are
  // clean (not failed); total executed clean time still completes the job.
  for (const auto& job : result.jobs) {
    if (job.status != JobStatus::kPassed ||
        job.spec.intrinsic != IntrinsicOutcome::kRunToCompletion) {
      continue;
    }
    SimDuration clean = 0;
    for (const auto& attempt : job.attempts) {
      if (!attempt.failed && !attempt.prerun) {
        clean += attempt.Duration();
      }
    }
    EXPECT_GE(clean, job.spec.planned_duration);
  }
}

}  // namespace
}  // namespace philly
