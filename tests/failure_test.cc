#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "src/common/sha256.h"
#include "src/failure/failure_catalog.h"
#include "src/failure/failure_injector.h"
#include "src/failure/failure_logs.h"
#include "src/failure/retry_policy.h"
#include "src/workload/generator.h"

namespace philly {
namespace {

// ------------------------------------------------------------------ catalog

TEST(FailureCatalogTest, HasAllTwentyTwoReasons) {
  // 22 published Table 7 rows plus the three machine-fault reasons
  // (node crash / GPU ECC / rack switch outage), which carry zero paper
  // stats so they never perturb the injector's sampling weights.
  const auto catalog = FailureCatalog();
  EXPECT_EQ(catalog.size(), 25u);
  std::set<std::string_view> names;
  int published = 0;
  for (const auto& info : catalog) {
    names.insert(info.name);
    published += info.paper_trials > 0;
    EXPECT_EQ(&InfoOf(info.reason), &info);
  }
  EXPECT_EQ(names.size(), 25u);  // unique names
  EXPECT_EQ(published, 22);
}

TEST(FailureCatalogTest, TotalsMatchPaper) {
  // Published column sums: 39776 failure trials, with no-signature at 4.2%.
  EXPECT_NEAR(TotalPaperTrials(), 39776.0, 1.0);
  const auto& nosig = InfoOf(FailureReason::kNoSignature);
  EXPECT_NEAR(nosig.paper_trials / TotalPaperTrials(), 0.042, 0.002);
}

TEST(FailureCatalogTest, TopReasonsOrderedByTrials) {
  EXPECT_GT(InfoOf(FailureReason::kCpuOutOfMemory).paper_trials,
            InfoOf(FailureReason::kIncorrectInputs).paper_trials);
  EXPECT_GT(InfoOf(FailureReason::kIncorrectInputs).paper_trials,
            InfoOf(FailureReason::kSemanticError).paper_trials);
}

TEST(FailureCatalogTest, RtfFitsRecoverPublishedPercentiles) {
  for (const auto& info : FailureCatalog()) {
    EXPECT_NEAR(info.rtf_fit.Median(), info.rtf_p50_min, info.rtf_p50_min * 0.01)
        << info.name;
    if (info.rtf_p90_min > info.rtf_p50_min) {
      EXPECT_NEAR(info.rtf_fit.Quantile(0.9), info.rtf_p90_min,
                  info.rtf_p90_min * 0.01)
          << info.name;
    }
  }
}

TEST(FailureCatalogTest, InfrastructureFailuresHaveLongRtf) {
  // §4.2.3: model checkpoint and MPI runtime errors appear after long
  // executions and dominate total RTF.
  EXPECT_GT(InfoOf(FailureReason::kModelCkptError).rtf_p50_min, 100.0);
  EXPECT_GT(InfoOf(FailureReason::kMpiRuntimeFailure).rtf_p50_min, 1000.0);
  EXPECT_LT(InfoOf(FailureReason::kSyntaxError).rtf_p50_min, 1.0);
  EXPECT_GT(InfoOf(FailureReason::kModelCkptError).rtf_total_share +
                InfoOf(FailureReason::kMpiRuntimeFailure).rtf_total_share,
            0.30);
}

TEST(FailureCatalogTest, CategoriesAssigned) {
  const auto& traceback = InfoOf(FailureReason::kTracebackFromCrash);
  EXPECT_TRUE(traceback.infrastructure && traceback.ai_engine && traceback.user);
  EXPECT_TRUE(InfoOf(FailureReason::kModelCkptError).infrastructure);
  EXPECT_TRUE(InfoOf(FailureReason::kSyntaxError).user);
  const auto& nosig = InfoOf(FailureReason::kNoSignature);
  EXPECT_FALSE(nosig.infrastructure || nosig.ai_engine || nosig.user);
}

TEST(FailureCatalogTest, DemandBuckets) {
  EXPECT_EQ(DemandBucketOf(1), DemandBucket::k1Gpu);
  EXPECT_EQ(DemandBucketOf(4), DemandBucket::k2To4Gpu);
  EXPECT_EQ(DemandBucketOf(5), DemandBucket::kGt4Gpu);
  EXPECT_EQ(DemandBucketOf(64), DemandBucket::kGt4Gpu);
}

// ----------------------------------------------------------------- injector

JobSpec MakeJob(JobId id, int gpus, SimDuration duration, UserId user = 10) {
  JobSpec job;
  job.id = id;
  job.num_gpus = gpus;
  job.planned_duration = duration;
  job.user = user;
  return job;
}

TEST(FailureInjectorTest, DeterministicPerJob) {
  FailureInjector injector;
  const JobSpec job = MakeJob(5, 8, Hours(4));
  const FailurePlan a = injector.PlanFor(job);
  const FailurePlan b = injector.PlanFor(job);
  EXPECT_EQ(a.fails, b.fails);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.num_failure_trials, b.num_failure_trials);
  EXPECT_EQ(a.trial_rtfs, b.trial_rtfs);
}

TEST(FailureInjectorTest, FailureRateRisesWithGpuCount) {
  FailureInjector injector;
  int small_fails = 0;
  int big_fails = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    small_fails += injector.PlanFor(MakeJob(i, 1, Hours(2), i % 300)).fails;
    big_fails += injector.PlanFor(MakeJob(i + kN, 16, Hours(2), i % 300)).fails;
  }
  EXPECT_GT(big_fails, small_fails * 2);
}

TEST(FailureInjectorTest, RtfBoundedByPlannedDurationMostly) {
  FailureInjector injector;
  int over = 0;
  int total = 0;
  for (int i = 0; i < 20000; ++i) {
    const JobSpec job = MakeJob(i, 4, Minutes(90), i % 100);
    const FailurePlan plan = injector.PlanFor(job);
    if (!plan.fails) {
      continue;
    }
    for (SimDuration rtf : plan.trial_rtfs) {
      ++total;
      if (rtf > job.planned_duration) {
        ++over;
      }
    }
  }
  ASSERT_GT(total, 100);
  EXPECT_EQ(over, 0);
}

TEST(FailureInjectorTest, TrialsWithinCap) {
  FailureInjectorConfig config;
  config.max_failure_trials = 4;
  FailureInjector injector(config);
  for (int i = 0; i < 5000; ++i) {
    const FailurePlan plan = injector.PlanFor(MakeJob(i, 8, Days(2), i % 50));
    if (plan.fails) {
      EXPECT_GE(plan.num_failure_trials, 1);
      EXPECT_LE(plan.num_failure_trials, 4);
      EXPECT_EQ(plan.trial_rtfs.size(),
                static_cast<size_t>(plan.num_failure_trials));
    }
  }
}

TEST(FailureInjectorTest, LongJobsDrawLongRtfReasons) {
  FailureInjector injector;
  double short_ckpt = 0;
  double short_all = 0;
  double long_ckpt = 0;
  double long_all = 0;
  for (int i = 0; i < 60000; ++i) {
    const auto short_plan = injector.PlanFor(MakeJob(i, 4, Minutes(20), i % 500));
    if (short_plan.fails) {
      ++short_all;
      short_ckpt += short_plan.reason == FailureReason::kModelCkptError ||
                    short_plan.reason == FailureReason::kMpiRuntimeFailure;
    }
    const auto long_plan =
        injector.PlanFor(MakeJob(i + 70000, 4, Days(5), i % 500));
    if (long_plan.fails) {
      ++long_all;
      long_ckpt += long_plan.reason == FailureReason::kModelCkptError ||
                   long_plan.reason == FailureReason::kMpiRuntimeFailure;
    }
  }
  ASSERT_GT(short_all, 100);
  ASSERT_GT(long_all, 100);
  EXPECT_GT(long_ckpt / long_all, 3.0 * (short_ckpt / short_all + 0.001));
}

TEST(FailureInjectorTest, NeverInjectsPreemption) {
  FailureInjector injector;
  for (int i = 0; i < 30000; ++i) {
    const FailurePlan plan = injector.PlanFor(MakeJob(i, 8, Days(3), i % 200));
    if (plan.fails) {
      EXPECT_NE(plan.reason, FailureReason::kJobPreempted);
    }
  }
}

TEST(FailureInjectorTest, FailureScaleZeroDisables) {
  FailureInjectorConfig config;
  config.failure_scale = 0.0;
  FailureInjector injector(config);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_FALSE(injector.PlanFor(MakeJob(i, 8, Days(1), i % 40)).fails);
  }
}

TEST(FailureInjectorTest, CursedUserConcentration) {
  // With curses enabled, some (user, reason) pairs should dominate a user's
  // failures, driving the paper's user-level repetition factor.
  FailureInjectorConfig config;
  config.cursed_pair_prob = 0.02;
  config.cursed_pair_multiplier = 200.0;
  FailureInjector injector(config);
  bool found_concentrated_user = false;
  for (UserId user = 0; user < 200 && !found_concentrated_user; ++user) {
    std::map<FailureReason, int> counts;
    int fails = 0;
    for (int i = 0; i < 400; ++i) {
      const auto plan =
          injector.PlanFor(MakeJob(user * 1000 + i, 1, Hours(3), user));
      if (plan.fails) {
        ++fails;
        ++counts[plan.reason];
      }
    }
    for (const auto& [reason, count] : counts) {
      if (fails >= 20 && count >= fails * 0.8) {
        found_concentrated_user = true;
      }
    }
  }
  EXPECT_TRUE(found_concentrated_user);
}

// ------------------------------------------------------------ logs/classifier

TEST(FailureLogsTest, ClassifierHasManyRules) {
  FailureClassifier classifier;
  EXPECT_GE(classifier.NumRules(), 70u);
}

TEST(FailureLogsTest, NoSignatureWhenNothingMatches) {
  FailureClassifier classifier;
  const std::vector<std::string> lines = {"all good", "nothing to see"};
  EXPECT_EQ(classifier.Classify(lines), FailureReason::kNoSignature);
  EXPECT_EQ(classifier.Classify({}), FailureReason::kNoSignature);
}

TEST(FailureLogsTest, RootCauseWinsOverTraceback) {
  FailureClassifier classifier;
  const std::vector<std::string> lines = {
      "Traceback (most recent call last):",
      "  File \"train.py\", line 10, in main",
      "MemoryError",
  };
  EXPECT_EQ(classifier.Classify(lines), FailureReason::kCpuOutOfMemory);
}

TEST(FailureLogsTest, GpuOomBeatsGenericCuda) {
  FailureClassifier classifier;
  const std::vector<std::string> lines = {
      "RuntimeError: CUDA out of memory. Tried to allocate 2.00 MiB"};
  EXPECT_EQ(classifier.Classify(lines), FailureReason::kGpuOutOfMemory);
}

TEST(FailureLogsTest, EpochLossLineRoundTrip) {
  const std::string line = FailureLogSynthesizer::EpochLossLine(12, 50, 0.123456);
  EpochLoss parsed;
  ASSERT_TRUE(ParseEpochLossLine(line, &parsed));
  EXPECT_EQ(parsed.epoch, 12);
  EXPECT_EQ(parsed.total_epochs, 50);
  EXPECT_NEAR(parsed.loss, 0.123456, 1e-9);
  EXPECT_FALSE(ParseEpochLossLine("INFO worker 3: step time 0.5s", &parsed));
}

// Parameterized: every reason's synthesized logs must classify back to that
// reason (the whole classifier pipeline is lossless over the template set).
class ClassifierRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ClassifierRoundTrip, SynthesizedLogsClassifyCorrectly) {
  const auto reason = static_cast<FailureReason>(GetParam());
  FailureLogSynthesizer synthesizer;
  FailureClassifier classifier;
  Rng rng(static_cast<uint64_t>(GetParam()) + 1);
  for (int i = 0; i < 200; ++i) {
    const auto lines = synthesizer.LinesFor(reason, rng);
    EXPECT_EQ(classifier.Classify(lines), reason)
        << "template sample " << i << " for " << ToString(reason);
  }
}

INSTANTIATE_TEST_SUITE_P(AllReasons, ClassifierRoundTrip,
                         ::testing::Range(0, kNumFailureReasons));

// ------------------------------------------------------------- retry policy

TEST(RetryPolicyTest, FixedRespectsBudget) {
  RetryPolicy policy(RetryPolicyKind::kFixed);
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    EXPECT_TRUE(policy.ShouldRetry(1, FailureReason::kSyntaxError, attempt));
  }
  EXPECT_FALSE(policy.ShouldRetry(1, FailureReason::kSyntaxError, kMaxRetries));
}

TEST(RetryPolicyTest, AdaptiveStopsDeterministicUserErrors) {
  RetryPolicy policy(RetryPolicyKind::kAdaptive);
  EXPECT_FALSE(policy.ShouldRetry(1, FailureReason::kSyntaxError, 0));
  EXPECT_FALSE(policy.ShouldRetry(1, FailureReason::kIncorrectInputs, 0));
  EXPECT_FALSE(policy.ShouldRetry(1, FailureReason::kCpuOutOfMemory, 0));
  EXPECT_TRUE(policy.ShouldRetry(1, FailureReason::kMpiRuntimeFailure, 0));
  EXPECT_TRUE(policy.ShouldRetry(1, FailureReason::kModelCkptError, 0));
  EXPECT_TRUE(policy.ShouldRetry(1, FailureReason::kJobPreempted, 0));
  EXPECT_FALSE(policy.ShouldRetry(1, FailureReason::kMpiRuntimeFailure, 5));
}

// Every decision of a `kind` policy for users 1 and 2, every reason and
// attempt indices 0-5, one '0'/'1' per query, asked before and after each of
// four rounds of ObserveFailure calls. Round k observes (user 1, reason r) for
// every r with r % 4 >= k, so user 1's pairs reach 1 to 4 observations, and
// (user 2, reason r) for r % 3 == k % 3.
std::string RetryDecisionBits(RetryPolicyKind kind) {
  RetryPolicy policy(kind);
  std::string bits;
  const auto query = [&] {
    for (const UserId user : {UserId{1}, UserId{2}}) {
      for (int r = 0; r < kNumFailureReasons; ++r) {
        for (int attempt = 0; attempt <= 5; ++attempt) {
          bits += policy.ShouldRetry(user, static_cast<FailureReason>(r), attempt) ? '1' : '0';
        }
      }
    }
  };
  query();
  for (int round = 0; round < 4; ++round) {
    for (int r = 0; r < kNumFailureReasons; ++r) {
      if (r % 4 >= round) {
        policy.ObserveFailure(1, static_cast<FailureReason>(r));
      }
      if (r % 3 == round % 3) {
        policy.ObserveFailure(2, static_cast<FailureReason>(r));
      }
    }
    query();
  }
  return bits;
}

// Pins every decision at the production budget (kMaxRetries = 4) and
// predictive threshold (3).
TEST(RetryPolicyTest, DecisionsMatchPin) {
  EXPECT_EQ(Sha256Hex(RetryDecisionBits(RetryPolicyKind::kFixed)),
            "bf7dfa8354029bcac03677586e9f50dd9321699fa85aa427f3d81e677d023d0c");
  EXPECT_EQ(Sha256Hex(RetryDecisionBits(RetryPolicyKind::kAdaptive)),
            "95f82dc99e1a3e19a05bab5d6796cf6dff557ae647b76656e033bfa29fa573a3");
  EXPECT_EQ(Sha256Hex(RetryDecisionBits(RetryPolicyKind::kPredictive)),
            "763b73a8b6011f41c725ff260331e3045d0950fbea0975255eeb7c3309284343");
}

}  // namespace
}  // namespace philly
