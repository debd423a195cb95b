// Regression tests for three scheduler-accounting bugs, each built as a
// hand-crafted scenario (failure injection disabled) that fails on the
// pre-fix code:
//
//   1. The per-pass feasibility cache was invalidated only when
//      `result_.preemptions` changed, but priority (checkpoint) suspension
//      and migration also free GPUs mid-pass — a stale entry then skipped a
//      job those GPUs could serve.
//   2. `SuspendAttempt` advanced `clean_executed` but never refreshed
//      `record.executed_epochs`, so a suspended job under-reported its
//      epochs until its next clean attempt completed.
//   3. `MigrationPass` checked `max_migrations_per_pass` per *server* but
//      incremented the counter per *job*, so evacuating one server could
//      overshoot the cap.

#include "src/sched/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace philly {
namespace {

JobSpec MakeJob(JobId id, SimTime submit, int gpus, SimDuration planned,
                int epochs) {
  JobSpec spec;
  spec.id = id;
  spec.vc = 0;
  spec.user = static_cast<UserId>(id);
  spec.submit_time = submit;
  spec.num_gpus = gpus;
  spec.planned_duration = planned;
  spec.planned_epochs = epochs;
  return spec;
}

SimulationConfig BaseConfig(int racks, int servers_per_rack, int gpus_per_server,
                            SchedulerConfig sched) {
  SimulationConfig config;
  config.cluster = ClusterConfig{};
  config.cluster.skus.push_back({racks, servers_per_rack, gpus_per_server});
  config.scheduler = std::move(sched);
  config.failure.failure_scale = 0.0;  // deterministic clean scenario
  config.vcs.push_back(
      {"vc0", racks * servers_per_rack * gpus_per_server, 1.0, 1.0, true});
  config.seed = 1;
  return config;
}

const JobRecord& RecordOf(const SimulationResult& result, JobId id) {
  const auto it =
      std::find_if(result.jobs.begin(), result.jobs.end(),
                   [id](const JobRecord& job) { return job.spec.id == id; });
  EXPECT_NE(it, result.jobs.end()) << "job " << id << " missing from result";
  return *it;
}

// Bug 1: a 32-GPU cluster is fully occupied by three long jobs. Three short
// SRTF jobs arrive together and are evaluated in one pass:
//   * P (10 GPUs) checkpoint-suspends the longest victim (8 GPUs freed),
//     still cannot place, and records "demand 10 failed" in the pass cache.
//   * Q (9 GPUs) suspends the next victim (16 GPUs freed) and starts.
//   * Y (10 GPUs) now fits in the remaining 15 free GPUs — but the stale
//     cache entry (written before Q's suspension freed those GPUs) used to
//     skip it to the next backoff pass, costing it 2 minutes of queueing.
TEST(SchedRegressionTest, FeasibilityCacheInvalidatedByPrioritySuspension) {
  SchedulerConfig sched = SchedulerConfig::Optimus();
  SimulationConfig config = BaseConfig(1, 4, 8, std::move(sched));

  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJob(1, 0, 8, Hours(100), 100));      // victim 1, server 0
  jobs.push_back(MakeJob(2, 1, 16, Hours(98), 98));       // victim 2, servers 1-2
  jobs.push_back(MakeJob(3, 2, 8, Hours(50), 50));        // server 3
  jobs.push_back(MakeJob(4, Hours(1), 10, Hours(10), 10));  // P
  jobs.push_back(MakeJob(5, Hours(1), 9, Hours(20), 20));   // Q
  jobs.push_back(MakeJob(6, Hours(1), 10, Hours(30), 30));  // Y

  ClusterSimulation sim(config, std::move(jobs));
  const SimulationResult result = sim.Run();

  // Both suspensions happened in that first contended pass.
  EXPECT_GE(result.priority_preemptions, 2);

  // Q started immediately after its suspension freed 16 GPUs.
  const JobRecord& q = RecordOf(result, 5);
  ASSERT_FALSE(q.waits.empty());
  EXPECT_EQ(q.waits.front().wait, 0);

  // Y must start in the same pass: 15 GPUs are free when it is evaluated.
  // Pre-fix, the stale cache entry deferred it to the next backoff pass
  // (a 120-second wait).
  const JobRecord& y = RecordOf(result, 6);
  ASSERT_FALSE(y.waits.empty());
  EXPECT_EQ(y.waits.front().wait, 0);
}

// Bug 2: a Gandiva time-slice suspends J1 after 3 hours (= 3 of its 10
// epochs); pre-fix the suspended job reported 0 epochs while it sat
// requeued. Both jobs must still finish with their full epoch counts.
TEST(SchedRegressionTest, SuspendedJobReportsExecutedEpochs) {
  SchedulerConfig sched = SchedulerConfig::Gandiva();
  sched.time_slice_quantum = Hours(3);
  SimulationConfig config = BaseConfig(1, 1, 8, std::move(sched));

  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJob(1, 0, 8, Hours(10), 10));  // J1: 1 epoch per hour
  jobs.push_back(MakeJob(2, 1, 8, Hours(2), 2));    // J2: waiter that slices in

  ClusterSimulation sim(config, std::move(jobs));
  const SimulationResult result = sim.Run();

  EXPECT_EQ(RecordOf(result, 1).status, JobStatus::kPassed);
  EXPECT_EQ(RecordOf(result, 1).executed_epochs, 10);
  EXPECT_EQ(RecordOf(result, 2).executed_epochs, 2);
}

// Bug 3: one half-used server hosts two migratable 2-GPU jobs and
// `max_migrations_per_pass` is 1. The defragmentation pass must migrate
// exactly one job; pre-fix the cap was only checked per server, so the whole
// server was evacuated (2 migrations).
TEST(SchedRegressionTest, MigrationPassHonorsPerJobCap) {
  SchedulerConfig sched = SchedulerConfig::Philly();
  sched.enable_migration = true;
  sched.max_migrations_per_pass = 1;
  sched.migration_period = Hours(2);
  SimulationConfig config = BaseConfig(1, 1, 8, std::move(sched));

  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJob(1, 0, 2, Hours(3), 3));
  jobs.push_back(MakeJob(2, 1, 2, Hours(3), 3));

  ClusterSimulation sim(config, std::move(jobs));
  const SimulationResult result = sim.Run();

  EXPECT_EQ(result.migrations, 1);
  EXPECT_EQ(RecordOf(result, 1).status, JobStatus::kPassed);
  EXPECT_EQ(RecordOf(result, 2).status, JobStatus::kPassed);
}

}  // namespace
}  // namespace philly
