#include "src/sched/simulation.h"

#include <gtest/gtest.h>

#include <map>

namespace philly {
namespace {

// Small, fast experiment used by most tests: paper VC structure, 2 days of
// arrivals, warm-start cohort large enough to exercise contention paths.
struct TestSetup {
  WorkloadConfig workload;
  SimulationConfig simulation;
  std::vector<JobSpec> jobs;

  explicit TestSetup(int days = 2, uint64_t seed = 11,
                     SchedulerConfig sched = SchedulerConfig::Philly()) {
    workload = WorkloadConfig::Scaled(days, seed);
    workload.prepopulate_busy_gpus = 2100;
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

TEST(SimulationTest, AllJobsReachTerminalState) {
  TestSetup setup;
  const auto result = setup.Run();
  EXPECT_EQ(result.jobs.size(), setup.jobs.size());
  for (const auto& job : result.jobs) {
    EXPECT_GE(job.finish_time, job.spec.submit_time);
    EXPECT_TRUE(job.status == JobStatus::kPassed || job.status == JobStatus::kKilled ||
                job.status == JobStatus::kUnsuccessful);
  }
}

TEST(SimulationTest, AttemptsAreWellFormed) {
  TestSetup setup;
  const auto result = setup.Run();
  for (const auto& job : result.jobs) {
    SimTime prev_end = job.spec.submit_time;
    for (const auto& attempt : job.attempts) {
      EXPECT_GE(attempt.start, prev_end);
      EXPECT_GE(attempt.end, attempt.start);
      EXPECT_EQ(attempt.placement.NumGpus(), job.spec.num_gpus);
      prev_end = attempt.end;
    }
  }
}

// The jobs' GPU-seconds, summed from their attempts, add up to the GPU-time
// the simulation booked as it released each attempt plus the pre-run pool's.
TEST(SimulationTest, GpuSecondsMatchTheLedger) {
  TestSetup setup;
  const auto result = setup.Run();
  double total = 0.0;
  for (const auto& job : result.jobs) {
    total += job.GpuSeconds();
  }
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(total, result.allocated_gpu_seconds + result.prerun_gpu_seconds,
              1e-9 * total);
}

TEST(SimulationTest, UtilSegmentsCoverAttemptTime) {
  TestSetup setup;
  const auto result = setup.Run();
  for (const auto& job : result.jobs) {
    SimDuration attempts_total = 0;
    for (const auto& attempt : job.attempts) {
      attempts_total += attempt.Duration();
    }
    SimDuration segments_total = 0;
    for (const auto& segment : job.util_segments) {
      EXPECT_GE(segment.expected_util, 0.0);
      EXPECT_LE(segment.expected_util, 1.0);
      EXPECT_GT(segment.duration, 0);
      segments_total += segment.duration;
    }
    EXPECT_EQ(segments_total, attempts_total);
  }
}

TEST(SimulationTest, WaitsAccountedPerAttempt) {
  TestSetup setup;
  const auto result = setup.Run();
  for (const auto& job : result.jobs) {
    if (job.spec.num_gpus > 1600) {
      continue;  // rejected outright
    }
    EXPECT_EQ(job.waits.size(), job.attempts.size());
    for (const auto& wait : job.waits) {
      EXPECT_GE(wait.wait, 0);
      EXPECT_LE(wait.fair_share_time + wait.fragmentation_time, wait.wait);
    }
  }
}

TEST(SimulationTest, FailedAttemptsCarryLogs) {
  TestSetup setup;
  const auto result = setup.Run();
  int failed_attempts = 0;
  for (const auto& job : result.jobs) {
    for (const auto& attempt : job.attempts) {
      if (attempt.failed) {
        ++failed_attempts;
        EXPECT_FALSE(attempt.log_tail.empty());
      } else {
        EXPECT_TRUE(attempt.log_tail.empty());
      }
    }
  }
  EXPECT_GT(failed_attempts, 100);
}

TEST(SimulationTest, RetriesBounded) {
  TestSetup setup;
  const auto result = setup.Run();
  for (const auto& job : result.jobs) {
    int failures = 0;
    for (const auto& attempt : job.attempts) {
      failures += attempt.failed && !attempt.preempted;
    }
    EXPECT_LE(failures, kMaxRetries + 1);
  }
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  TestSetup a;
  TestSetup b;
  const auto ra = a.Run();
  const auto rb = b.Run();
  ASSERT_EQ(ra.jobs.size(), rb.jobs.size());
  for (size_t i = 0; i < ra.jobs.size(); ++i) {
    EXPECT_EQ(ra.jobs[i].status, rb.jobs[i].status);
    EXPECT_DOUBLE_EQ(ra.jobs[i].GpuSeconds(), rb.jobs[i].GpuSeconds());
    EXPECT_EQ(ra.jobs[i].finish_time, rb.jobs[i].finish_time);
  }
  EXPECT_EQ(ra.scheduling_decisions, rb.scheduling_decisions);
  EXPECT_EQ(ra.preemptions, rb.preemptions);
}

TEST(SimulationTest, StatusMixReasonable) {
  TestSetup setup(3);
  const auto result = setup.Run();
  std::map<JobStatus, int> counts;
  for (const auto& job : result.jobs) {
    ++counts[job.status];
  }
  const double n = static_cast<double>(result.jobs.size());
  EXPECT_GT(counts[JobStatus::kPassed] / n, 0.55);
  EXPECT_GT(counts[JobStatus::kKilled] / n, 0.04);
  EXPECT_GT(counts[JobStatus::kUnsuccessful] / n, 0.08);
}

TEST(SimulationTest, FifoDisallowsOutOfOrder) {
  TestSetup setup(2, 11, SchedulerConfig::Fifo());
  const auto result = setup.Run();
  EXPECT_EQ(result.out_of_order_decisions, 0);
  for (const auto& job : result.jobs) {
    EXPECT_FALSE(job.started_out_of_order);
  }
}

TEST(SimulationTest, PhillyAllowsOutOfOrder) {
  // Long enough to include deadline-push bursts, which create the queueing
  // that out-of-order scheduling needs.
  TestSetup setup(10);
  const auto result = setup.Run();
  EXPECT_GT(result.out_of_order_decisions, 0);
  EXPECT_LE(result.out_of_order_benign, result.out_of_order_decisions);
}

TEST(SimulationTest, PreemptionDisabledMeansNone) {
  SchedulerConfig sched = SchedulerConfig::Philly();
  sched.enable_preemption = false;
  TestSetup setup(2, 11, sched);
  const auto result = setup.Run();
  EXPECT_EQ(result.preemptions, 0);
  for (const auto& job : result.jobs) {
    for (const auto& attempt : job.attempts) {
      EXPECT_FALSE(attempt.preempted);
    }
  }
}

TEST(SimulationTest, PreemptedAttemptsMarked) {
  TestSetup setup(4);
  const auto result = setup.Run();
  int64_t preempted_attempts = 0;
  for (const auto& job : result.jobs) {
    for (const auto& attempt : job.attempts) {
      if (attempt.preempted) {
        ++preempted_attempts;
        EXPECT_TRUE(attempt.failed);
        EXPECT_EQ(attempt.true_reason, FailureReason::kJobPreempted);
        EXPECT_FALSE(attempt.log_tail.empty());
      }
    }
  }
  EXPECT_EQ(preempted_attempts, result.preemptions);
}

TEST(SimulationTest, GandivaTimeSlicingSuspendsJobs) {
  SchedulerConfig sched = SchedulerConfig::Gandiva();
  sched.time_slice_quantum = Minutes(30);
  TestSetup setup(2, 11, sched);
  const auto result = setup.Run();
  // Suspended clean attempts: non-failed attempts that did not end the job.
  int suspended = 0;
  for (const auto& job : result.jobs) {
    for (size_t i = 0; i + 1 < job.attempts.size(); ++i) {
      if (!job.attempts[i].failed) {
        ++suspended;
      }
    }
  }
  EXPECT_GT(suspended, 0);
}

TEST(SimulationTest, AdaptiveRetryNeverUsesMoreGpuTime) {
  SchedulerConfig fixed = SchedulerConfig::Philly();
  SchedulerConfig adaptive = SchedulerConfig::Philly();
  adaptive.retry_policy = SchedulerConfig::RetryPolicyKind::kAdaptive;
  TestSetup fixed_setup(2, 11, fixed);
  TestSetup adaptive_setup(2, 11, adaptive);
  const auto rf = fixed_setup.Run();
  const auto ra = adaptive_setup.Run();
  double fixed_failed_time = 0.0;
  double adaptive_failed_time = 0.0;
  for (const auto& job : rf.jobs) {
    for (const auto& attempt : job.attempts) {
      if (attempt.failed) {
        fixed_failed_time += attempt.GpuTime();
      }
    }
  }
  for (const auto& job : ra.jobs) {
    for (const auto& attempt : job.attempts) {
      if (attempt.failed) {
        adaptive_failed_time += attempt.GpuTime();
      }
    }
  }
  EXPECT_LT(adaptive_failed_time, fixed_failed_time);
}

TEST(SimulationTest, StrictLocalityNeverSpreadsSubServerJobs) {
  SchedulerConfig sched = SchedulerConfig::Philly();
  sched.max_relax_level = 0;
  TestSetup setup(2, 11, sched);
  const auto result = setup.Run();
  for (const auto& job : result.jobs) {
    if (job.spec.num_gpus <= 8) {
      for (const auto& attempt : job.attempts) {
        EXPECT_EQ(attempt.placement.NumServers(), 1);
      }
    }
  }
}

TEST(SimulationTest, SnapshotsCoverArrivalWindow) {
  TestSetup setup(2);
  const auto result = setup.Run();
  ASSERT_FALSE(result.occupancy_snapshots.empty());
  for (const auto& snap : result.occupancy_snapshots) {
    EXPECT_GE(snap.occupancy, 0.0);
    EXPECT_LE(snap.occupancy, 1.0);
    EXPECT_GE(snap.empty_server_fraction, 0.0);
    EXPECT_LE(snap.empty_server_fraction, 1.0);
  }
  EXPECT_GE(result.occupancy_snapshots.back().time, Days(1));
}

TEST(SimulationTest, OversizedJobRejected) {
  TestSetup setup(1, 3);
  JobSpec monster;
  monster.id = 999999;
  monster.vc = 0;
  monster.num_gpus = 100000;
  monster.submit_time = Hours(1);
  setup.jobs.push_back(monster);
  std::sort(setup.jobs.begin(), setup.jobs.end(),
            [](const JobSpec& a, const JobSpec& b) {
              return a.submit_time < b.submit_time;
            });
  const auto result = setup.Run();
  bool found = false;
  for (const auto& job : result.jobs) {
    if (job.spec.id == 999999) {
      found = true;
      EXPECT_EQ(job.status, JobStatus::kUnsuccessful);
      EXPECT_TRUE(job.attempts.empty());
    }
  }
  EXPECT_TRUE(found);
}

// Scheduler-policy sweep: every preset must complete the workload and
// produce internally consistent records.
class SchedulerPresetSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerPresetSweep, CompletesWorkload) {
  SchedulerConfig sched;
  const std::string name = GetParam();
  if (name == "philly") {
    sched = SchedulerConfig::Philly();
  } else if (name == "fifo") {
    sched = SchedulerConfig::Fifo();
  } else if (name == "optimus") {
    sched = SchedulerConfig::Optimus();
  } else if (name == "tiresias") {
    sched = SchedulerConfig::Tiresias();
  } else {
    sched = SchedulerConfig::Gandiva();
  }
  TestSetup setup(1, 29, sched);
  const auto result = setup.Run();
  EXPECT_EQ(result.jobs.size(), setup.jobs.size());
  int passed = 0;
  for (const auto& job : result.jobs) {
    passed += job.status == JobStatus::kPassed;
  }
  EXPECT_GT(passed, static_cast<int>(result.jobs.size() / 2));
}

INSTANTIATE_TEST_SUITE_P(Presets, SchedulerPresetSweep,
                         ::testing::Values("philly", "fifo", "optimus", "tiresias",
                                           "gandiva"));

TEST(SchedulerConfigTest, PresetsMatchTableOne) {
  const auto philly = SchedulerConfig::Philly();
  EXPECT_EQ(philly.name, "philly");
  EXPECT_EQ(philly.ordering, QueueOrdering::kFifoArrival);
  EXPECT_TRUE(philly.allow_out_of_order);
  EXPECT_FALSE(philly.time_slicing);
  EXPECT_FALSE(philly.priority_preemption);

  const auto fifo = SchedulerConfig::Fifo();
  EXPECT_FALSE(fifo.allow_out_of_order);

  const auto optimus = SchedulerConfig::Optimus();
  EXPECT_EQ(optimus.ordering, QueueOrdering::kShortestRemainingFirst);
  EXPECT_TRUE(optimus.priority_preemption);

  const auto tiresias = SchedulerConfig::Tiresias();
  EXPECT_EQ(tiresias.ordering, QueueOrdering::kLeastAttainedServiceFirst);
  EXPECT_TRUE(tiresias.priority_preemption);

  const auto gandiva = SchedulerConfig::Gandiva();
  EXPECT_TRUE(gandiva.time_slicing);
}

TEST(SimulationTest, QuotasOversubscribedButVc4Tight) {
  // The workload config encodes the paper's VC structure: generous quotas for
  // the large production groups, a chronically over-subscribed VC5 analogue.
  const auto workload = WorkloadConfig::PaperScale();
  const auto cluster = ClusterConfig::PaperScale();
  EXPECT_GT(workload.TotalQuota(), cluster.TotalGpus());
  // vc4's demand share of realized GPU-time far exceeds its quota share.
  const double vc4_rate_share =
      workload.vcs[4].arrival_rate_per_hour / workload.TotalArrivalRate();
  const double vc4_quota_share =
      static_cast<double>(workload.vcs[4].quota_gpus) / workload.TotalQuota();
  EXPECT_GT(vc4_rate_share, 1.5 * vc4_quota_share);
}

}  // namespace
}  // namespace philly
