// Tests for the report helpers and the experiment driver.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/experiment.h"
#include "src/core/report.h"

namespace philly {
namespace {

TEST(ShapeCheckerTest, CountsPassesAndFailures) {
  ShapeChecker checker;
  checker.Check("a", true);
  checker.Check("b", false, "detail");
  checker.Check("c", true);
  EXPECT_EQ(checker.num_checks(), 3);
  EXPECT_EQ(checker.num_failures(), 1);
  EXPECT_FALSE(checker.AllPassed());
  const std::string rendered = checker.Render();
  EXPECT_NE(rendered.find("[ok]   a"), std::string::npos);
  EXPECT_NE(rendered.find("[FAIL] b"), std::string::npos);
  EXPECT_NE(rendered.find("(detail)"), std::string::npos);
  EXPECT_NE(rendered.find("2/3 passed"), std::string::npos);
}

TEST(ShapeCheckerTest, CheckWithinTolerance) {
  ShapeChecker checker;
  checker.CheckWithin("exact", 100.0, 100.0, 0.01);
  checker.CheckWithin("close", 102.0, 100.0, 0.03);
  checker.CheckWithin("far", 110.0, 100.0, 0.03);
  EXPECT_EQ(checker.num_failures(), 1);
}

TEST(ShapeCheckerTest, CheckBandInclusive) {
  ShapeChecker checker;
  checker.CheckBand("lo-edge", 1.0, 1.0, 2.0);
  checker.CheckBand("hi-edge", 2.0, 1.0, 2.0);
  checker.CheckBand("below", 0.99, 1.0, 2.0);
  EXPECT_EQ(checker.num_failures(), 1);
}

TEST(RenderTest, CdfProbesFormat) {
  StreamingHistogram hist(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) {
    hist.Add(i + 0.5);
  }
  const std::string probes = RenderCdfProbes(hist, {50.0}, "%");
  EXPECT_NE(probes.find("P(<=50%)"), std::string::npos);
  EXPECT_NE(probes.find("50.0%"), std::string::npos);
}

TEST(RenderTest, WriteCdfCsvRoundTrip) {
  StreamingHistogram hist(0.0, 10.0, 10);
  hist.Add(2.5);
  hist.Add(7.5);
  const std::string path = ::testing::TempDir() + "/cdf_test.csv";
  ASSERT_TRUE(WriteCdfCsv(hist, path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "value,cumulative");
  int rows = 0;
  double last_cum = -1.0;
  while (std::getline(in, line)) {
    ++rows;
    double value = 0.0;
    double cum = 0.0;
    ASSERT_EQ(std::sscanf(line.c_str(), "%lf,%lf", &value, &cum), 2);
    EXPECT_GE(cum, last_cum);
    last_cum = cum;
  }
  EXPECT_EQ(rows, 10);
  EXPECT_DOUBLE_EQ(last_cum, 1.0);
  std::remove(path.c_str());
}

TEST(RenderTest, WriteCdfCsvFailsOnBadPath) {
  StreamingHistogram hist(0.0, 1.0, 4);
  EXPECT_FALSE(WriteCdfCsv(hist, "/nonexistent/dir/file.csv"));
}

TEST(ExperimentTest, BenchScaleIsConsistent) {
  const auto config = ExperimentConfig::BenchScale(3, 9);
  EXPECT_EQ(config.workload.duration, Days(3));
  EXPECT_EQ(config.workload.seed, 9u);
  EXPECT_EQ(config.simulation.seed, 9u);
  // VC definitions shared between workload and simulation.
  ASSERT_EQ(config.workload.vcs.size(), config.simulation.vcs.size());
  for (size_t i = 0; i < config.workload.vcs.size(); ++i) {
    EXPECT_EQ(config.workload.vcs[i].quota_gpus, config.simulation.vcs[i].quota_gpus);
  }
}

TEST(ExperimentTest, RunExperimentDeterministic) {
  const auto config = ExperimentConfig::BenchScale(1, 77);
  const ExperimentRun a = RunExperiment(config);
  const ExperimentRun b = RunExperiment(config);
  ASSERT_EQ(a.result.jobs.size(), b.result.jobs.size());
  EXPECT_EQ(a.num_jobs, b.num_jobs);
  double ga = 0.0;
  double gb = 0.0;
  for (const auto& job : a.result.jobs) {
    ga += job.gpu_seconds;
  }
  for (const auto& job : b.result.jobs) {
    gb += job.gpu_seconds;
  }
  EXPECT_DOUBLE_EQ(ga, gb);
}

TEST(ExperimentTest, SeedChangesOutcome) {
  const ExperimentRun a = RunExperiment(ExperimentConfig::BenchScale(1, 1));
  const ExperimentRun b = RunExperiment(ExperimentConfig::BenchScale(1, 2));
  double ga = 0.0;
  double gb = 0.0;
  for (const auto& job : a.result.jobs) {
    ga += job.gpu_seconds;
  }
  for (const auto& job : b.result.jobs) {
    gb += job.gpu_seconds;
  }
  EXPECT_NE(ga, gb);
}

}  // namespace
}  // namespace philly
