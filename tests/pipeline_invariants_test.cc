// Cross-cutting invariants: the analysis results computed from the in-memory
// records must be identical to those computed from a trace-file round trip —
// i.e., the trace artifact loses nothing the analysis needs.

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/validate.h"
#include "src/trace/trace_io.h"

namespace philly {
namespace {

std::vector<JobRecord> RoundTrip(const std::vector<JobRecord>& jobs) {
  std::stringstream jobs_csv;
  std::stringstream attempts_csv;
  std::stringstream util_csv;
  std::stringstream stdout_log;
  TraceWriter::WriteJobs(jobs, jobs_csv);
  TraceWriter::WriteAttempts(jobs, attempts_csv);
  TraceWriter::WriteUtilSegments(jobs, util_csv);
  TraceWriter::WriteStdoutLogs(jobs, stdout_log);
  std::string error;
  std::vector<JobRecord> restored =
      TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log, &error);
  EXPECT_EQ(error, "");
  return restored;
}

void ExpectSameDelayCauses(const std::vector<JobRecord>& native,
                           const std::vector<JobRecord>& restored) {
  const auto a = AnalyzeDelayCauses(native, nullptr);
  const auto b = AnalyzeDelayCauses(restored, nullptr);
  for (int bucket = 0; bucket < kNumSizeBuckets; ++bucket) {
    EXPECT_EQ(a.by_bucket[static_cast<size_t>(bucket)].fair_share,
              b.by_bucket[static_cast<size_t>(bucket)].fair_share);
    EXPECT_EQ(a.by_bucket[static_cast<size_t>(bucket)].fragmentation,
              b.by_bucket[static_cast<size_t>(bucket)].fragmentation);
  }
  EXPECT_EQ(a.fair_share_time_fraction, b.fair_share_time_fraction);
  EXPECT_EQ(a.fragmentation_time_fraction, b.fragmentation_time_fraction);
}

void ExpectSameFailures(const std::vector<JobRecord>& native,
                        const std::vector<JobRecord>& restored) {
  const auto a = AnalyzeFailures(native);
  const auto b = AnalyzeFailures(restored);
  EXPECT_EQ(a.total_trials, b.total_trials);
  EXPECT_EQ(a.mean_retries_all, b.mean_retries_all);
  EXPECT_EQ(a.unsuccessful_rate_all, b.unsuccessful_rate_all);
  for (int r = 0; r < kNumFailureReasons; ++r) {
    EXPECT_EQ(a.rows[static_cast<size_t>(r)].trials,
              b.rows[static_cast<size_t>(r)].trials)
        << ToString(static_cast<FailureReason>(r));
    EXPECT_EQ(a.rows[static_cast<size_t>(r)].jobs,
              b.rows[static_cast<size_t>(r)].jobs);
    EXPECT_NEAR(a.rows[static_cast<size_t>(r)].rtf_p50_min,
                b.rows[static_cast<size_t>(r)].rtf_p50_min, 1e-6);
  }
}

class PipelineInvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = ExperimentConfig::BenchScale(3, 5);
    run_ = new ExperimentRun(RunExperiment(config));
    restored_ = new std::vector<JobRecord>(RoundTrip(run_->result.jobs));
  }
  static void TearDownTestSuite() {
    delete run_;
    delete restored_;
    run_ = nullptr;
    restored_ = nullptr;
  }

  static ExperimentRun* run_;
  static std::vector<JobRecord>* restored_;
};

ExperimentRun* PipelineInvariantsTest::run_ = nullptr;
std::vector<JobRecord>* PipelineInvariantsTest::restored_ = nullptr;

TEST_F(PipelineInvariantsTest, StatusAnalysisSurvivesRoundTrip) {
  const auto a = AnalyzeStatus(run_->result.jobs);
  const auto b = AnalyzeStatus(*restored_);
  EXPECT_EQ(a.total_jobs, b.total_jobs);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(a.by_status[static_cast<size_t>(s)].count,
              b.by_status[static_cast<size_t>(s)].count);
    EXPECT_NEAR(a.by_status[static_cast<size_t>(s)].gpu_time_share,
                b.by_status[static_cast<size_t>(s)].gpu_time_share, 1e-9);
  }
}

TEST_F(PipelineInvariantsTest, RunTimeAnalysisSurvivesRoundTrip) {
  const auto a = AnalyzeRunTimes(run_->result.jobs);
  const auto b = AnalyzeRunTimes(*restored_);
  for (int bucket = 0; bucket < kNumSizeBuckets; ++bucket) {
    EXPECT_DOUBLE_EQ(a.cdf_minutes[static_cast<size_t>(bucket)].Count(),
                     b.cdf_minutes[static_cast<size_t>(bucket)].Count());
    EXPECT_NEAR(a.cdf_minutes[static_cast<size_t>(bucket)].Mean(),
                b.cdf_minutes[static_cast<size_t>(bucket)].Mean(), 1e-9);
  }
  EXPECT_DOUBLE_EQ(a.fraction_over_one_week, b.fraction_over_one_week);
}

TEST_F(PipelineInvariantsTest, FailureAnalysisSurvivesRoundTrip) {
  ExpectSameFailures(run_->result.jobs, *restored_);
}

TEST_F(PipelineInvariantsTest, DelayCauseAnalysisSurvivesRoundTrip) {
  // Table 2 needs every wait with its cause split, not only the first.
  ASSERT_GT(AnalyzeFailures(run_->result.jobs).mean_retries_all, 0.0);
  ExpectSameDelayCauses(run_->result.jobs, *restored_);
}

TEST_F(PipelineInvariantsTest, RestoredTraceValidates) {
  const ValidationReport report = ValidateJobs(*restored_);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(PipelineInvariantsTest, UtilizationAnalysisSurvivesRoundTrip) {
  // Doubles are written as their shortest round-trip text, so the means
  // agree exactly.
  const auto a = AnalyzeUtilization(run_->result.jobs);
  const auto b = AnalyzeUtilization(*restored_);
  EXPECT_EQ(a.all.Mean(), b.all.Mean());
  EXPECT_EQ(a.all.Count(), b.all.Count());
}

TEST_F(PipelineInvariantsTest, GpuTimeConservation) {
  // Total GPU-time is the same through the trace round trip, and equals what
  // the simulation booked as it released each attempt (plus the pre-run pool).
  double from_run = 0.0;
  double from_trace = 0.0;
  for (const auto& job : run_->result.jobs) {
    from_run += job.GpuSeconds();
  }
  for (const auto& job : *restored_) {
    from_trace += job.GpuSeconds();
  }
  EXPECT_EQ(from_run, from_trace);
  EXPECT_NEAR(from_run,
              run_->result.allocated_gpu_seconds + run_->result.prerun_gpu_seconds,
              1e-9 * from_run);
}

TEST_F(PipelineInvariantsTest, EveryFailedAttemptClassifiable) {
  FailureClassifier classifier;
  int64_t no_signature = 0;
  int64_t failed = 0;
  for (const auto& job : *restored_) {
    for (const auto& attempt : job.attempts) {
      if (!attempt.failed) {
        continue;
      }
      ++failed;
      if (classifier.Classify(attempt.log_tail) == FailureReason::kNoSignature) {
        ++no_signature;
      }
    }
  }
  ASSERT_GT(failed, 100);
  // Only genuinely signature-less logs should fall through (paper: 4.2%).
  EXPECT_LT(static_cast<double>(no_signature) / static_cast<double>(failed), 0.10);
}

// Pre-run pool attempts run on one GPU with no gang placement; without their
// flag in the trace they would fail the gang-size check and move Table 7.
TEST(PipelineInvariantsPrerunTest, PrerunRunSurvivesRoundTrip) {
  auto config = ExperimentConfig::BenchScale(2, 7);
  config.simulation.scheduler.enable_prerun_pool = true;
  const ExperimentRun run = RunExperiment(config);
  ASSERT_GT(run.result.prerun_jobs, 0);
  const std::vector<JobRecord> restored = RoundTrip(run.result.jobs);
  const ValidationReport report = ValidateJobs(restored);
  EXPECT_TRUE(report.ok()) << report.Summary();
  ExpectSameFailures(run.result.jobs, restored);
  ExpectSameDelayCauses(run.result.jobs, restored);
}

}  // namespace
}  // namespace philly
