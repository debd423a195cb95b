// Tests for the report, its post-run pipeline, the report helpers and the
// experiment driver.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/sha256.h"
#include "src/core/cli_options.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/obs/trace_profiler.h"
#include "src/trace/trace_io.h"

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
    ga += job.GpuSeconds();
  }
  for (const auto& job : b.result.jobs) {
    gb += job.GpuSeconds();
  }
  EXPECT_DOUBLE_EQ(ga, gb);
}

TEST(ExperimentTest, SeedChangesOutcome) {
  const ExperimentRun a = RunExperiment(ExperimentConfig::BenchScale(1, 1));
  const ExperimentRun b = RunExperiment(ExperimentConfig::BenchScale(1, 2));
  double ga = 0.0;
  double gb = 0.0;
  for (const auto& job : a.result.jobs) {
    ga += job.GpuSeconds();
  }
  for (const auto& job : b.result.jobs) {
    gb += job.GpuSeconds();
  }
  EXPECT_NE(ga, gb);
}

// The run `phillyctl` makes for `argv` (a `report` or `simulate` command).
ExperimentRun RunCommandLine(std::vector<const char*> argv) {
  Args args;
  std::string error;
  EXPECT_TRUE(ParseArgs(argv, &args, &error)) << error;
  ExperimentConfig config = ExperimentConfig::BenchScale(
      static_cast<int>(args.Int("--days")), static_cast<uint64_t>(args.Int("--seed")));
  ApplySchedulerOptions(args, args.Text("--scheduler"), args.Text("--retry"), &config.simulation);
  return RunExperiment(config);
}

// What RunPostRun prints into its output file, and whether it succeeded.
std::string PostRunText(const PostRun& run, int threads, bool* ok) {
  std::FILE* file = std::tmpfile();
  EXPECT_NE(file, nullptr);
  ReportAnalyses analyses;
  *ok = RunPostRun(run, ExperimentPool(threads), file, &analyses);
  std::string text(static_cast<size_t>(std::ftell(file)), '\0');
  std::rewind(file);
  EXPECT_EQ(std::fread(text.data(), 1, text.size(), file), text.size());
  std::fclose(file);
  return text;
}

// The digests are of `phillyctl`'s stdout from the "=== Table 6" line on, as
// printed before the report moved into the library: `report` with the
// arguments below, and `analyze --trace` on `simulate --days 2 --seed 42
// --out DIR`.
TEST(PostRunTest, ReportMatchesPinnedBytesForEveryPoolSize) {
  struct Case {
    std::vector<const char*> argv;
    bool read_back;  // the analyze --trace form: no SimulationResult
    const char* sha256;
  };
  const Case cases[] = {
      {{"report", "--days", "2", "--seed", "42"}, false,
       "65376213a9f68e124dca0d759225f9cf6dd3667775d1243ec4e14614dbe2f8c9"},
      {{"report", "--days", "2", "--seed", "7", "--faults", "--checkpoint-mins", "30",
        "--ckpt-bw", "0.5"},
       false, "c615ea1fb2a6129a268d0854cde4b209c325d65ff411948cba5fd965467fb5c3"},
      {{"report", "--days", "2", "--seed", "42"}, true,
       "d23fe64ca279ce8c34040e86dfeb1f592240c9cae4ceef053874e193f8f9fd7e"},
  };
  for (const Case& c : cases) {
    const ExperimentRun run = RunCommandLine(c.argv);
    std::vector<JobRecord> jobs = run.result.jobs;
    if (c.read_back) {
      const std::string dir = ::testing::TempDir() + "/post_run_trace";
      std::filesystem::create_directories(dir);
      ASSERT_TRUE(TraceWriter::WriteDirectory(run.result.jobs, dir));
      std::string error;
      jobs = TraceReader::ReadDirectory(dir, &error);
      ASSERT_EQ(error, "");
      std::filesystem::remove_all(dir);
    }
    const PostRun post_run{.jobs = &jobs, .sim = c.read_back ? nullptr : &run.result};
    for (const int threads : {1, 2, 4}) {
      bool ok = false;
      const std::string text = PostRunText(post_run, threads, &ok);
      EXPECT_TRUE(ok);
      EXPECT_EQ(Sha256Hex(text), c.sha256) << c.argv[4] << " read back " << c.read_back
                                           << " on " << threads << " threads:\n" << text;
    }
  }
}

// Every step records one slice inside "analyze", and a trace format that
// cannot be written stops the pipeline before the report.
TEST(PostRunTest, StepsAreSlicedAndAFailedTraceWritePrintsNoReport) {
  const ExperimentRun run = RunCommandLine({"report", "--days", "1", "--seed", "3"});
  const std::string dir = ::testing::TempDir() + "/post_run_steps";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/fig");
  const ClusterConfig cluster = ExperimentConfig::BenchScale(1, 3).simulation.cluster;
  TraceProfiler profiler;
  PostRun post_run{.jobs = &run.result.jobs,
                   .sim = &run.result,
                   .trace_dir = dir,
                   .native = true,
                   .philly_traces = &cluster,
                   .figures_dir = dir + "/fig",
                   .profiler = &profiler};
  bool ok = false;
  const std::string text = PostRunText(post_run, 4, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(text.rfind("native trace written to " + dir + "/\n"
                       "philly-traces-format files written to " + dir + "/\n"
                       "=== Table 6",
                       0),
            0u)
      << text;
  EXPECT_NE(text.find("figure series written to " + dir + "/fig/"), std::string::npos);
  std::ostringstream trace;
  profiler.WriteChromeTrace(trace);
  for (const char* name : {"analyze", "table3", "table7", "tables", "trace:native",
                           "trace:philly-traces", "figures"}) {
    EXPECT_NE(trace.str().find("\"name\": \"" + std::string(name) + "\""), std::string::npos)
        << name;
  }

  post_run.trace_dir = dir + "/missing";
  post_run.profiler = nullptr;
  EXPECT_EQ(PostRunText(post_run, 4, &ok), "");
  EXPECT_FALSE(ok);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace philly
