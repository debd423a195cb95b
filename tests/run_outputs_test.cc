// The output list behind `phillyctl simulate|report|fleet`: which recorders
// a set of outputs attaches and streams, the path checks made before a run,
// and the manifest written after it.

#include "src/core/run_outputs.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "src/common/sha256.h"
#include "src/core/analysis.h"
#include "src/core/experiment.h"

namespace philly {
namespace {

// A fresh directory under the system temp dir, removed with the test.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              ("philly_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const { return (path_ / name).string(); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Simulate's outputs for the given flags, each with a file in `dir`.
std::vector<RunOutput> Declare(SimulateRun* run, const std::set<std::string>& flags,
                               const TempDir& dir) {
  std::vector<RunOutput> outputs;
  for (RunOutput& output : SimulateOutputs(run)) {
    if (flags.count(output.flag) > 0) {
      output.path = dir.File(output.flag.substr(2));
      outputs.push_back(std::move(output));
    }
  }
  return outputs;
}

// What each stream recorder of `run` holds after one record more than a
// batch: one when it streams or drops its batches, all of them when it is
// kept whole. The stream files then hold every record either way.
struct Held {
  size_t events = 0;
  size_t samples = 0;
  size_t spans = 0;
};
constexpr size_t kBatch = RecordBuffer<SchedEvent>::kBatchRecords;

Held AppendPastOneBatch(SimulateRun* run) {
  for (size_t i = 0; i <= kBatch; ++i) {
    run->events.Append(SchedEventKind::kSubmit, static_cast<SimTime>(i), 1);
    run->telemetry.AppendSample(run->telemetry.NextSampleTime());
    run->spans.log().Append().job = 1;
  }
  return {run->events.events().size(), run->telemetry.samples().size(),
          run->spans.log().spans().size()};
}

size_t LineCount(const std::string& path) {
  const std::string bytes = ReadFile(path);
  return static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n'));
}

TEST(RunOutputsTest, EveryOutputFlagIsDeclaredOnce) {
  SimulateRun run;
  std::set<std::string> flags;
  for (const RunOutput& output : SimulateOutputs(&run)) {
    EXPECT_TRUE(flags.insert(output.flag).second) << output.flag;
  }
  EXPECT_EQ(flags, (std::set<std::string>{"--events-out", "--metrics-out", "--trace-out",
                                          "--telemetry-out", "--spans-out",
                                          "--spans-trace-out", "--html"}));
}

// --html implies the event and telemetry recorders and the span tracer
// attaches only for a span output. The dashboard folds what it reads, so a
// recorder is kept whole only for the span Chrome trace; every other streams
// into its file during the run, or holds one batch when it has none.
// Streaming shows as a recorder that holds one record while its file, once
// finished, holds them all.
TEST(RunOutputsTest, EveryStreamSubsetAttachesAndStreamsAsTheRuleSays) {
  const std::vector<std::string> kStreams = {"--events-out", "--telemetry-out", "--spans-out",
                                             "--spans-trace-out", "--html"};
  for (unsigned mask = 0; mask < 32; ++mask) {
    std::set<std::string> flags;
    for (size_t i = 0; i < kStreams.size(); ++i) {
      if (mask & (1u << i)) {
        flags.insert(kStreams[i]);
      }
    }
    const bool events = flags.count("--events-out") > 0;
    const bool telemetry = flags.count("--telemetry-out") > 0;
    const bool spans = flags.count("--spans-out") > 0;
    const bool spans_trace = flags.count("--spans-trace-out") > 0;
    const bool html = flags.count("--html") > 0;

    TempDir dir("run_outputs_subset");
    SimulateRun run;
    RunOutputs outputs("", Declare(&run, flags, dir));
    ASSERT_TRUE(outputs.Open()) << mask;
    ObservabilityConfig obs;
    outputs.Attach(&run, &obs);
    SCOPED_TRACE("mask " + std::to_string(mask));
    EXPECT_EQ(obs.event_log != nullptr, events || html);
    EXPECT_EQ(obs.timeseries != nullptr, telemetry || html);
    EXPECT_EQ(obs.spans != nullptr, spans || spans_trace);
    EXPECT_EQ(obs.metrics, nullptr);
    EXPECT_EQ(obs.profiler, nullptr);
    EXPECT_EQ(run.dashboard.has_events, html);

    const Held held = AppendPastOneBatch(&run);
    EXPECT_EQ(held.events, 1u);
    EXPECT_EQ(held.samples, 1u);
    EXPECT_EQ(held.spans, spans_trace ? kBatch + 1 : 1u);
    RunManifest manifest;
    ::testing::internal::CaptureStdout();
    ASSERT_TRUE(outputs.Finish(&manifest));
    ::testing::internal::GetCapturedStdout();
    if (events) {
      EXPECT_EQ(LineCount(dir.File("events-out")), kBatch + 1);
    }
    if (telemetry) {
      EXPECT_EQ(LineCount(dir.File("telemetry-out")), kBatch + 2);  // and the digest
    }
    if (spans) {
      EXPECT_EQ(LineCount(dir.File("spans-out")), kBatch + 1);
    }
    if (html) {
      EXPECT_EQ(run.dashboard.samples, static_cast<int64_t>(kBatch + 1));
      EXPECT_EQ(run.dashboard.event_counts[static_cast<size_t>(SchedEventKind::kSubmit)],
                static_cast<int64_t>(kBatch + 1));
      EXPECT_EQ(run.dashboard.spans, static_cast<int64_t>(kBatch + 1));
    }
  }
}

TEST(RunOutputsTest, MetricsAndPhaseTraceAttachTheirRecordersOnly) {
  TempDir dir("run_outputs_metrics");
  SimulateRun run;
  RunOutputs outputs("", Declare(&run, {"--metrics-out", "--trace-out"}, dir));
  ASSERT_TRUE(outputs.Open());
  ObservabilityConfig obs;
  outputs.Attach(&run, &obs);
  EXPECT_EQ(obs.metrics, &run.metrics);
  EXPECT_EQ(obs.profiler, &run.profiler);
  EXPECT_EQ(obs.event_log, nullptr);
  EXPECT_EQ(obs.timeseries, nullptr);
  EXPECT_EQ(obs.spans, nullptr);
  const Held held = AppendPastOneBatch(&run);
  EXPECT_EQ(held.events, 1u);
  EXPECT_EQ(held.samples, 1u);
  EXPECT_EQ(held.spans, 1u);
}

TEST(RunOutputsTest, TwoOutputsOnOnePathFailNamingBothFlags) {
  TempDir dir("run_outputs_clash");
  SimulateRun run;
  std::vector<RunOutput> declared = Declare(&run, {"--events-out", "--spans-out"}, dir);
  declared[1].path = dir.path().string() + "/./" + "events-out";
  RunOutputs outputs("", std::move(declared));
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(outputs.Open());
  const std::string message = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(message.find("--events-out and --spans-out both name"), std::string::npos)
      << message;

  // The manifest an output directory receives is an output too.
  std::vector<RunOutput> into_manifest = Declare(&run, {"--html"}, dir);
  into_manifest[0].path = dir.File("out/manifest.json");
  RunOutputs with_dir(dir.File("out"), std::move(into_manifest));
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(with_dir.Open());
  const std::string manifest_message = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(manifest_message.find("--out and --html both name"), std::string::npos)
      << manifest_message;
}

TEST(RunOutputsTest, UnopenablePathFailsBeforeAnythingIsWritten) {
  TempDir dir("run_outputs_unopenable");
  SimulateRun run;
  std::vector<RunOutput> declared =
      Declare(&run, {"--events-out", "--metrics-out", "--telemetry-out"}, dir);
  declared[2].path = dir.File("missing/telemetry.ndjson");
  {
    RunOutputs outputs(dir.File("out"), std::move(declared));
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(outputs.Open());
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "cannot write telemetry to " + dir.File("missing/telemetry.ndjson")),
              std::string::npos);
  }
  // Nothing is left: the files opened before the failing one leave no
  // `.partial` behind, and the output directory Open made is gone again.
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir.path())) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{});
}

// A failed Open removes the directories it made, and only those: an output
// directory's missing parents go too, a directory that was there stays.
TEST(RunOutputsTest, FailedOpenRemovesOnlyTheDirectoriesItMade) {
  TempDir dir("run_outputs_made_dirs");
  std::filesystem::create_directories(dir.path() / "kept");
  SimulateRun run;
  std::vector<RunOutput> declared = Declare(&run, {"--events-out", "--telemetry-out"}, dir);
  declared[0].path = dir.File("kept/o/d/events.ndjson");
  declared[1].path = dir.File("missing/telemetry.ndjson");
  RunOutputs outputs(dir.File("kept/o/d"), std::move(declared));
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(outputs.Open());
  ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(std::filesystem::is_directory(dir.path() / "kept"));
  EXPECT_TRUE(std::filesystem::is_empty(dir.path() / "kept"));

  // The output directory itself was there: it stays, with what it held.
  std::filesystem::create_directories(dir.path() / "there");
  std::ofstream(dir.File("there/old.txt")) << "kept";
  std::vector<RunOutput> again = Declare(&run, {"--telemetry-out"}, dir);
  again[0].path = dir.File("missing/telemetry.ndjson");
  RunOutputs into_existing(dir.File("there"), std::move(again));
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(into_existing.Open());
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(ReadFile(dir.File("there/old.txt")), "kept");
  EXPECT_FALSE(std::filesystem::exists(dir.File("there/manifest.json.partial")));
}

TEST(RunOutputsTest, FinishedRunRecordsEveryDigestAndWritesTheManifestLast) {
  TempDir dir("run_outputs_finish");
  SimulateRun run;
  std::set<std::string> flags;
  for (const RunOutput& output : SimulateOutputs(&run)) {
    flags.insert(output.flag);
  }
  RunOutputs outputs(dir.File("out"), Declare(&run, flags, dir));
  ASSERT_TRUE(outputs.Open());
  ExperimentConfig config = ExperimentConfig::BenchScale(1, 42);
  outputs.Attach(&run, &config.simulation.obs);
  const ExperimentRun experiment = RunExperiment(config);
  run.jobs = &experiment.result.jobs;
  run.util_digest = ComputeUtilDigest(experiment.result.jobs);
  RunManifest manifest;
  ::testing::internal::CaptureStdout();
  ASSERT_TRUE(outputs.Finish(&manifest));
  const std::string lines = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(lines.find("scheduler events written to " + dir.File("events-out")),
            std::string::npos);
  EXPECT_EQ(lines.substr(lines.rfind("manifest written to")),
            "manifest written to " + dir.File("out/manifest.json") + "\n");

  EXPECT_EQ(manifest.digests.size(), flags.size());
  for (const auto& [sink, digest] : manifest.digests) {
    EXPECT_EQ(Sha256Hex(ReadFile(manifest.outputs.at(sink))), digest) << sink;
  }
  std::ostringstream json;
  manifest.WriteJson(json);
  EXPECT_EQ(ReadFile(dir.File("out/manifest.json")), json.str());
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir.path())) {
    EXPECT_NE(entry.path().extension(), ".partial") << entry.path();
  }
}

}  // namespace
}  // namespace philly
