#include "src/core/validate.h"

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/fault/fault_process.h"

namespace philly {
namespace {

JobRecord CleanJob() {
  JobRecord job;
  job.spec.id = 1;
  job.spec.num_gpus = 8;
  job.spec.submit_time = 100;
  job.finish_time = 700;
  WaitRecord wait;
  wait.wait = 50;
  wait.fragmentation_time = 40;
  job.waits.push_back(wait);
  AttemptRecord attempt;
  attempt.start = 150;
  attempt.end = 700;
  attempt.placement.shards = {{0, 8}};
  job.attempts.push_back(attempt);
  job.util_segments.push_back({0.5, 550, 1});
  return job;
}

TEST(ValidateTest, CleanRecordPasses) {
  const auto report = ValidateJobs({CleanJob()});
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.jobs_checked, 1);
  EXPECT_EQ(report.attempts_checked, 1);
}

TEST(ValidateTest, DetectsGangSizeMismatch) {
  auto job = CleanJob();
  job.attempts[0].placement.shards = {{0, 4}};
  const auto report = ValidateJobs({job});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].what.find("gang size"), std::string::npos);
}

TEST(ValidateTest, DetectsOverlappingAttempts) {
  auto job = CleanJob();
  AttemptRecord second = job.attempts[0];
  second.index = 1;
  second.start = 600;  // overlaps the first attempt
  second.end = 900;
  job.attempts.push_back(second);
  job.waits.push_back(WaitRecord{});
  job.util_segments.push_back({0.5, 300, 1});
  const auto report = ValidateJobs({job});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].what.find("starts before"), std::string::npos);
}

TEST(ValidateTest, DetectsSegmentGap) {
  auto job = CleanJob();
  job.util_segments[0].duration = 100;  // attempts total 550
  const auto report = ValidateJobs({job});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].what.find("segments cover"), std::string::npos);
}

TEST(ValidateTest, DetectsBadWaitAttribution) {
  auto job = CleanJob();
  job.waits[0].fair_share_time = 1000;  // exceeds the 50s wait
  const auto report = ValidateJobs({job});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.issues[0].what.find("attribution"), std::string::npos);
}

TEST(ValidateTest, IssueCapRespected) {
  std::vector<JobRecord> jobs;
  for (int i = 0; i < 150; ++i) {
    auto job = CleanJob();
    job.spec.id = i + 1;
    job.finish_time = 0;  // before its submission
    jobs.push_back(job);
  }
  const auto report = ValidateJobs(jobs);
  EXPECT_EQ(report.issues.size(), 100u);
  EXPECT_EQ(report.jobs_checked, 150);
}

// Property: simulator output validates cleanly across seeds and scheduler
// features — the library-level statement of what the per-feature tests assert
// piecewise.
class SimulatorOutputValid : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorOutputValid, EveryRunValidates) {
  ExperimentConfig config = ExperimentConfig::BenchScale(2, GetParam());
  // Exercise the optional mechanisms too.
  config.simulation.scheduler.enable_prerun_pool = (GetParam() % 2) == 0;
  config.simulation.scheduler.enable_migration = (GetParam() % 3) == 0;
  const ExperimentRun run = RunExperiment(config);
  const auto report = ValidateJobs(run.result.jobs);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOutputValid,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ----------------------------------------------- failure-share distribution

// The classified failure-reason mix of simulator output must track the
// published Table 7 shares within tolerance.
TEST(FailureShareTest, SimulatedMixTracksTable7) {
  const ExperimentRun run = RunExperiment(ExperimentConfig::BenchScale(3));
  const auto report = ValidateFailureShares(run.result.jobs);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.attempts_checked, 0);
}

// The calibrated machine-fault process is rare enough that it must not push
// any published reason outside tolerance.
TEST(FailureShareTest, CalibratedFaultsDoNotDistortTheMix) {
  ExperimentConfig config = ExperimentConfig::BenchScale(3);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  const ExperimentRun run = RunExperiment(config);
  const auto report = ValidateFailureShares(run.result.jobs);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Sanity of the check itself: grossly inflating one reason's trial count must
// trip the tolerance.
TEST(FailureShareTest, SkewedMixFailsTheCheck) {
  const ExperimentRun run = RunExperiment(ExperimentConfig::BenchScale(2));
  std::vector<JobRecord> jobs = run.result.jobs;
  const JobRecord* failed_job = nullptr;
  for (const JobRecord& job : jobs) {
    for (const AttemptRecord& attempt : job.attempts) {
      if (attempt.failed && !attempt.preempted && !attempt.machine_fault) {
        failed_job = &job;
        break;
      }
    }
    if (failed_job != nullptr) {
      break;
    }
  }
  ASSERT_NE(failed_job, nullptr) << "workload produced no classifiable failure";
  JobRecord dupe = *failed_job;
  for (int i = 0; i < 2000; ++i) {
    dupe.spec.id = 1000000 + i;
    jobs.push_back(dupe);
  }
  EXPECT_FALSE(ValidateFailureShares(jobs).ok());
}

TEST(FailureShareTest, TooFewTrialsPassVacuously) {
  const auto report = ValidateFailureShares({});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.attempts_checked, 0);
}

}  // namespace
}  // namespace philly
