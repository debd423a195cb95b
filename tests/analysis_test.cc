// Unit tests for the analysis pipeline over hand-crafted records with known
// answers.

#include "src/core/analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/experiment.h"
#include "src/failure/failure_logs.h"
#include "src/workload/loss_curve.h"

namespace philly {
namespace {

JobRecord MakeJobRecord(JobId id, int gpus, SimDuration run, JobStatus status,
                        SimDuration delay = 0, VcId vc = 0) {
  JobRecord job;
  job.spec.id = id;
  job.spec.vc = vc;
  job.spec.user = static_cast<UserId>(id % 17);
  job.spec.num_gpus = gpus;
  job.status = status;
  WaitRecord wait;
  wait.wait = delay;
  job.waits.push_back(wait);
  AttemptRecord attempt;
  attempt.start = delay;
  attempt.end = delay + run;
  attempt.placement.shards.push_back({0, gpus});
  job.attempts.push_back(attempt);
  job.gpu_seconds = static_cast<double>(run) * gpus;
  return job;
}

TEST(RunTimeAnalysisTest, BucketsAndWeekTail) {
  std::vector<JobRecord> jobs;
  jobs.push_back(MakeJobRecord(1, 1, Minutes(10), JobStatus::kPassed));
  jobs.push_back(MakeJobRecord(2, 4, Hours(2), JobStatus::kPassed));
  jobs.push_back(MakeJobRecord(3, 8, Days(10), JobStatus::kPassed));
  jobs.push_back(MakeJobRecord(4, 16, Days(1), JobStatus::kKilled));
  const auto result = AnalyzeRunTimes(jobs);
  EXPECT_EQ(result.cdf_minutes[0].Count(), 1.0);
  EXPECT_EQ(result.cdf_minutes[1].Count(), 1.0);
  EXPECT_EQ(result.cdf_minutes[2].Count(), 1.0);
  EXPECT_EQ(result.cdf_minutes[3].Count(), 1.0);
  EXPECT_NEAR(result.cdf_minutes[0].Mean(), 10.0, 1e-6);
  EXPECT_DOUBLE_EQ(result.fraction_over_one_week, 0.25);
}

TEST(RunTimeAnalysisTest, SkipsNeverRunJobs) {
  std::vector<JobRecord> jobs;
  JobRecord never;
  never.spec.num_gpus = 1;
  jobs.push_back(never);
  const auto result = AnalyzeRunTimes(jobs);
  EXPECT_EQ(result.cdf_minutes[0].Count(), 0.0);
}

TEST(QueueDelayAnalysisTest, PerVcSeparation) {
  std::vector<JobRecord> jobs;
  jobs.push_back(MakeJobRecord(1, 1, Hours(1), JobStatus::kPassed, Minutes(5), 0));
  jobs.push_back(MakeJobRecord(2, 16, Hours(1), JobStatus::kPassed, Minutes(50), 1));
  const auto result = AnalyzeQueueDelays(jobs);
  ASSERT_EQ(result.by_vc.size(), 2u);
  EXPECT_NEAR(result.by_vc.at(0)[0].Mean(), 5.0, 1e-6);
  EXPECT_NEAR(result.by_vc.at(1)[3].Mean(), 50.0, 1e-6);
  EXPECT_NEAR(result.overall[3].Mean(), 50.0, 1e-6);
}

TEST(LocalityDelayAnalysisTest, GroupsByServerCount) {
  std::vector<JobRecord> jobs;
  auto spread = MakeJobRecord(1, 16, Hours(1), JobStatus::kPassed, Minutes(2));
  spread.attempts[0].placement.shards = {{0, 8}, {1, 4}, {2, 4}};
  jobs.push_back(spread);
  auto tight = MakeJobRecord(2, 16, Hours(1), JobStatus::kPassed, Minutes(60));
  tight.attempts[0].placement.shards = {{0, 8}, {1, 8}};
  jobs.push_back(tight);
  jobs.push_back(MakeJobRecord(3, 8, Hours(1), JobStatus::kPassed, Minutes(7)));
  const auto result = AnalyzeLocalityDelay(jobs);
  ASSERT_EQ(result.gt_eight.size(), 2u);
  EXPECT_EQ(result.gt_eight[0].num_servers, 2);
  EXPECT_NEAR(result.gt_eight[0].delay_minutes.mean, 60.0, 0.5);
  EXPECT_EQ(result.gt_eight[1].num_servers, 3);
  ASSERT_EQ(result.five_to_eight.size(), 1u);
  EXPECT_EQ(result.five_to_eight[0].num_servers, 1);
}

TEST(DelayCauseAnalysisTest, DominantCauseCounting) {
  std::vector<JobRecord> jobs;
  auto fair = MakeJobRecord(1, 4, Hours(1), JobStatus::kPassed, Minutes(10));
  fair.waits[0].fair_share_time = Minutes(9);
  fair.waits[0].fragmentation_time = Minutes(1);
  jobs.push_back(fair);
  auto frag = MakeJobRecord(2, 16, Hours(1), JobStatus::kPassed, Minutes(20));
  frag.waits[0].fragmentation_time = Minutes(20);
  jobs.push_back(frag);
  // Too short to count (paper filters jobs that ran < 1 minute).
  auto brief = MakeJobRecord(3, 4, Seconds(30), JobStatus::kKilled, Minutes(5));
  brief.waits[0].fragmentation_time = Minutes(5);
  jobs.push_back(brief);

  const auto result = AnalyzeDelayCauses(jobs);
  EXPECT_EQ(result.by_bucket[1].fair_share, 1);
  EXPECT_EQ(result.by_bucket[1].fragmentation, 0);
  EXPECT_EQ(result.by_bucket[3].fragmentation, 1);
  EXPECT_NEAR(result.fragmentation_time_fraction, 21.0 / 30.0, 1e-9);
}

TEST(DelayCauseAnalysisTest, SimCountersFlowThrough) {
  SimulationResult sim;
  sim.scheduling_decisions = 100;
  sim.out_of_order_decisions = 40;
  sim.out_of_order_benign = 30;
  sim.occupancy_snapshots.push_back({0, 0.66, 0.04, 7});
  sim.occupancy_snapshots.push_back({1, 0.20, 0.80, 12});
  const auto result = AnalyzeDelayCauses({}, &sim);
  EXPECT_DOUBLE_EQ(result.out_of_order_fraction, 0.4);
  EXPECT_DOUBLE_EQ(result.out_of_order_benign_fraction, 0.75);
  EXPECT_DOUBLE_EQ(result.empty_server_fraction_at_two_thirds, 0.04);
}

TEST(UtilizationAnalysisTest, MeansMatchSegments) {
  std::vector<JobRecord> jobs;
  auto job = MakeJobRecord(1, 8, Hours(10), JobStatus::kPassed);
  job.util_segments.push_back({0.6, Hours(10), 1});
  jobs.push_back(job);
  SamplerConfig quiet;
  quiet.jitter_sigma = 0.0;
  const auto result = AnalyzeUtilization(jobs, quiet);
  EXPECT_NEAR(result.MeanForSize(2), 60.0, 0.1);  // size index 2 = 8 GPUs
  EXPECT_NEAR(result.MeanFor(JobStatus::kPassed, 2), 60.0, 0.1);
  EXPECT_NEAR(result.dedicated_8gpu.Mean(), 60.0, 0.1);
  EXPECT_EQ(result.by_size[0].Count(), 0.0);  // no 1-GPU jobs
}

TEST(UtilizationAnalysisTest, SixteenGpuSpreadBuckets) {
  std::vector<JobRecord> jobs;
  auto job = MakeJobRecord(1, 16, Hours(4), JobStatus::kPassed);
  job.util_segments.push_back({0.5, Hours(2), 2});
  job.util_segments.push_back({0.3, Hours(2), 8});
  jobs.push_back(job);
  SamplerConfig quiet;
  quiet.jitter_sigma = 0.0;
  const auto result = AnalyzeUtilization(jobs, quiet);
  ASSERT_EQ(result.sixteen_by_servers.size(), 2u);
  EXPECT_NEAR(result.sixteen_by_servers.at(2).Mean(), 50.0, 0.1);
  EXPECT_NEAR(result.sixteen_by_servers.at(8).Mean(), 30.0, 0.1);
  EXPECT_NEAR(result.dedicated_16gpu.Mean(), 50.0, 0.1);
}

TEST(UtilizationAnalysisTest, WeightsByGpuCountAndDuration) {
  std::vector<JobRecord> jobs;
  auto small = MakeJobRecord(1, 1, Hours(1), JobStatus::kPassed);
  small.util_segments.push_back({1.0, Hours(1), 1});
  auto big = MakeJobRecord(2, 16, Hours(1), JobStatus::kPassed);
  big.util_segments.push_back({0.0, Hours(1), 2});
  jobs.push_back(small);
  jobs.push_back(big);
  SamplerConfig quiet;
  quiet.jitter_sigma = 0.0;
  const auto result = AnalyzeUtilization(jobs, quiet);
  // 1 GPU-hour at 100% + 16 GPU-hours at 0% -> overall mean 100/17.
  EXPECT_NEAR(result.all.Mean(), 100.0 / 17.0, 0.1);
}

// The Table 3 histograms and the telemetry digest accumulate one sample
// stream: the same weights added in the same order, so every weight total
// matches exactly. The means differ only by Welford versus a plain sum.
TEST(UtilizationAnalysisTest, DigestSeesTheAnalysisSampleStream) {
  const ExperimentRun run =
      RunExperiment(ExperimentConfig::BenchScale(/*days=*/2, /*seed=*/42));
  const UtilizationResult util = AnalyzeUtilization(run.result.jobs);
  const TelemetryDigest digest = ComputeUtilDigest(run.result.jobs);
  constexpr size_t kOverall = TelemetryDigest::kOverallClass;
  ASSERT_GT(util.all.Count(), 0.0);
  EXPECT_EQ(util.all.Count(), digest.util_weight[kOverall]);
  for (int r = 0; r < UtilizationResult::kNumRepresentative; ++r) {
    EXPECT_EQ(util.by_size[static_cast<size_t>(r)].Count(),
              digest.util_weight[static_cast<size_t>(r)])
        << "size class " << r;
  }
  const double digest_mean =
      digest.util_weighted_sum[kOverall] / digest.util_weight[kOverall];
  EXPECT_NEAR(util.all.Mean(), digest_mean, 1e-12 * std::abs(digest_mean));
}

TEST(HostResourceAnalysisTest, WeightedByRunTime) {
  std::vector<JobRecord> jobs;
  jobs.push_back(MakeJobRecord(1, 2, Hours(5), JobStatus::kPassed));
  jobs.push_back(MakeJobRecord(2, 2, 0, JobStatus::kKilled));  // never ran
  const auto result = AnalyzeHostResources(jobs);
  EXPECT_GT(result.cpu_util.Count(), 0.0);
  EXPECT_GT(result.memory_util.Mean(), result.cpu_util.Mean());
}

TEST(StatusAnalysisTest, SharesComputed) {
  std::vector<JobRecord> jobs;
  jobs.push_back(MakeJobRecord(1, 1, Hours(10), JobStatus::kPassed));
  jobs.push_back(MakeJobRecord(2, 1, Hours(10), JobStatus::kPassed));
  jobs.push_back(MakeJobRecord(3, 1, Hours(30), JobStatus::kKilled));
  jobs.push_back(MakeJobRecord(4, 1, Hours(50), JobStatus::kUnsuccessful));
  const auto result = AnalyzeStatus(jobs);
  EXPECT_EQ(result.total_jobs, 4);
  EXPECT_DOUBLE_EQ(result.by_status[0].count_share, 0.5);
  EXPECT_DOUBLE_EQ(result.by_status[0].gpu_time_share, 0.2);
  EXPECT_DOUBLE_EQ(result.by_status[1].gpu_time_share, 0.3);
  EXPECT_DOUBLE_EQ(result.by_status[2].gpu_time_share, 0.5);
}

TEST(ConvergenceAnalysisTest, CleanCurveNeedsAllEpochs) {
  std::vector<JobRecord> jobs;
  auto job = MakeJobRecord(1, 1, Hours(10), JobStatus::kPassed);
  job.spec.logs_convergence = true;
  job.spec.planned_epochs = 100;
  job.executed_epochs = 100;
  job.spec.loss_curve.noise_sigma = 0.0;  // perfectly clean: min at last epoch
  job.spec.loss_curve.decay_rate = 0.2;   // within 0.1% early
  jobs.push_back(job);
  const auto result = AnalyzeConvergence(jobs);
  EXPECT_EQ(result.jobs_with_convergence_info, 1);
  EXPECT_NEAR(result.passed_lowest.Mean(), 1.0, 1e-6);
  EXPECT_LT(result.passed_within.Mean(), 0.6);
  EXPECT_GT(result.passed_gpu_time_for_last_tenth_pct, 0.4);
}

TEST(ConvergenceAnalysisTest, FiltersNonLoggingAndUnsuccessful) {
  std::vector<JobRecord> jobs;
  auto a = MakeJobRecord(1, 1, Hours(1), JobStatus::kPassed);
  a.executed_epochs = 50;  // logs_convergence false
  jobs.push_back(a);
  auto b = MakeJobRecord(2, 1, Hours(1), JobStatus::kUnsuccessful);
  b.spec.logs_convergence = true;
  b.executed_epochs = 50;
  jobs.push_back(b);
  const auto result = AnalyzeConvergence(jobs);
  EXPECT_EQ(result.jobs_with_convergence_info, 0);
}

TEST(VcLoadAnalysisTest, ComputesBusyAndQuotaStats) {
  std::vector<JobRecord> jobs;
  // VC 0: one 8-GPU job running 2h within a 10-GPU quota.
  auto a = MakeJobRecord(1, 8, Hours(2), JobStatus::kPassed, Minutes(30), 0);
  a.waits[0].fair_share_time = Minutes(30);
  jobs.push_back(a);
  // VC 1: one 16-GPU job running 1h against a 4-GPU quota (over quota).
  jobs.push_back(MakeJobRecord(2, 16, Hours(1), JobStatus::kPassed, 0, 1));
  const std::vector<VcConfig> vcs = {{"vc0", 10, 1.0, 1.0, true},
                                     {"vc1", 4, 1.0, 1.0, true}};
  const auto result = AnalyzeVcLoad(jobs, vcs, Hours(1));
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].jobs, 1);
  EXPECT_EQ(result.rows[0].quota_gpus, 10);
  EXPECT_NEAR(result.rows[0].peak_busy_gpus, 8.0, 0.01);
  EXPECT_NEAR(result.rows[0].mean_queue_delay_min, 30.0, 0.01);
  EXPECT_NEAR(result.rows[0].fair_share_delay_share, 1.0, 1e-9);
  EXPECT_NEAR(result.rows[1].peak_busy_gpus, 16.0, 0.01);
  EXPECT_GT(result.rows[1].over_quota_time_share, 0.2);
  EXPECT_DOUBLE_EQ(result.rows[1].fair_share_delay_share, 0.0);
}

TEST(VcLoadAnalysisTest, EmptyInput) {
  EXPECT_TRUE(AnalyzeVcLoad({}, {}).rows.empty());
}

TEST(FailureAnalysisTest, ClassifiesFromLogTails) {
  FailureLogSynthesizer synthesizer;
  Rng rng(3);
  std::vector<JobRecord> jobs;
  // Two jobs failing with CPU OOM (2 trials each), one with ckpt error.
  for (JobId id = 1; id <= 2; ++id) {
    auto job = MakeJobRecord(id, 1, Minutes(30), JobStatus::kUnsuccessful);
    job.attempts.clear();
    for (int k = 0; k < 2; ++k) {
      AttemptRecord attempt;
      attempt.index = k;
      attempt.start = k * Minutes(20);
      attempt.end = attempt.start + Minutes(10);
      attempt.failed = true;
      attempt.placement.shards.push_back({0, 1});
      attempt.log_tail = synthesizer.LinesFor(FailureReason::kCpuOutOfMemory, rng);
      job.attempts.push_back(attempt);
    }
    jobs.push_back(job);
  }
  auto ckpt = MakeJobRecord(3, 8, Hours(10), JobStatus::kUnsuccessful);
  ckpt.attempts[0].failed = true;
  ckpt.attempts[0].log_tail = synthesizer.LinesFor(FailureReason::kModelCkptError, rng);
  jobs.push_back(ckpt);

  const auto result = AnalyzeFailures(jobs);
  const auto& oom = result.rows[static_cast<size_t>(FailureReason::kCpuOutOfMemory)];
  EXPECT_EQ(oom.trials, 4);
  EXPECT_EQ(oom.jobs, 2);
  EXPECT_NEAR(oom.rtf_p50_min, 10.0, 0.5);
  const auto& ckpt_row =
      result.rows[static_cast<size_t>(FailureReason::kModelCkptError)];
  EXPECT_EQ(ckpt_row.trials, 1);
  EXPECT_EQ(ckpt_row.demand[static_cast<size_t>(DemandBucket::kGt4Gpu)], 1);
  EXPECT_EQ(result.total_trials, 5);
  // RTF x demand: ckpt failure is 600 min x 8 GPUs vs 40 min x 1 GPU.
  EXPECT_GT(ckpt_row.rtf_x_demand_share, 0.9);
}

TEST(FailureAnalysisTest, RetriesAndUnsuccessfulRates) {
  std::vector<JobRecord> jobs;
  auto retried = MakeJobRecord(1, 16, Hours(1), JobStatus::kUnsuccessful);
  retried.attempts.push_back(retried.attempts[0]);
  retried.attempts.push_back(retried.attempts[0]);
  jobs.push_back(retried);
  jobs.push_back(MakeJobRecord(2, 1, Hours(1), JobStatus::kPassed));
  const auto result = AnalyzeFailures(jobs);
  EXPECT_DOUBLE_EQ(result.mean_retries_by_bucket[3], 2.0);
  EXPECT_DOUBLE_EQ(result.mean_retries_by_bucket[0], 0.0);
  EXPECT_DOUBLE_EQ(result.unsuccessful_rate_by_bucket[3], 1.0);
  EXPECT_DOUBLE_EQ(result.unsuccessful_rate_all, 0.5);
  EXPECT_DOUBLE_EQ(result.mean_retries_all, 1.0);
}

TEST(FailureAnalysisTest, ScatterCollectsTargetReasons) {
  FailureLogSynthesizer synthesizer;
  Rng rng(5);
  std::vector<JobRecord> jobs;
  auto job = MakeJobRecord(1, 24, Hours(20), JobStatus::kUnsuccessful);
  job.attempts[0].failed = true;
  job.attempts[0].log_tail = synthesizer.LinesFor(FailureReason::kSemanticError, rng);
  jobs.push_back(job);
  const auto result = AnalyzeFailures(jobs);
  const auto it = result.rtf_demand_scatter.find(FailureReason::kSemanticError);
  ASSERT_NE(it, result.rtf_demand_scatter.end());
  ASSERT_EQ(it->second.size(), 1u);
  EXPECT_EQ(it->second[0].first, 24);
  EXPECT_NEAR(it->second[0].second, 1200.0, 1.0);
}

}  // namespace
}  // namespace philly
