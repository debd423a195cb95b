// Streamed versus buffered sinks. A sink in streaming mode
// (src/obs/record_buffer.h) writes its records to disk batch by batch while
// the run produces them; the contract is that this changes nothing but
// memory. The file must be byte-identical to the buffered stream, digest line
// included; the OutputFile's incremental SHA-256 must equal a one-shot hash
// of those bytes; the committed goldens must come out unchanged when
// streamed; and a streaming sink must never hold more than one batch,
// however long the run.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <unistd.h>

#include "src/common/sha256.h"
#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/output_file.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "tests/golden_configs.h"

namespace philly {
namespace {

constexpr size_t kBatch = RecordBuffer<SchedEvent>::kBatchRecords;

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

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

// Discards what it is given, counting the bytes.
class CountingBuf : public std::streambuf {
 public:
  size_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<size_t>(n);
    return n;
  }

 private:
  size_t bytes_ = 0;
};

// The fault golden workload over six days of arrivals, sampled every ten
// minutes: faults, stagger checkpoints, and enough records that every stream
// crosses several batch boundaries.
ExperimentConfig MultiBatchConfig() {
  ExperimentConfig config = FaultGoldenConfig();
  config.workload.duration = Days(6);
  return config;
}

constexpr SimDuration kMultiBatchPeriod = Minutes(10);

struct Streams {
  std::string events;
  std::string telemetry;
  std::string spans;
};

Streams BufferedStreams(const ExperimentConfig& base, SimDuration period) {
  EventLog events;
  ClusterTimeSeries timeseries(period);
  SpanTracer spans;
  MetricsRegistry metrics;
  ExperimentConfig config = base;
  config.simulation.obs.event_log = &events;
  config.simulation.obs.timeseries = &timeseries;
  config.simulation.obs.spans = &spans;
  config.simulation.obs.metrics = &metrics;
  const ExperimentRun run = RunExperiment(config);
  Streams out;
  std::ostringstream e;
  events.WriteNdjson(e);
  out.events = e.str();
  // The buffered digest is computed the way it always was, over the whole
  // sample vector; the streamed side folds it sample by sample.
  TelemetryDigest digest = DigestOfSamples(timeseries.samples());
  const TelemetryDigest jobs_half = ComputeUtilDigest(run.result.jobs);
  digest.jobs = jobs_half.jobs;
  digest.segments = jobs_half.segments;
  digest.util_weight = jobs_half.util_weight;
  digest.util_weighted_sum = jobs_half.util_weighted_sum;
  std::ostringstream t;
  timeseries.WriteNdjson(t, &digest);
  out.telemetry = t.str();
  std::ostringstream s;
  spans.log().WriteNdjson(s);
  out.spans = s.str();
  return out;
}

TEST(ObsStreamTest, StreamedFilesAreByteIdenticalToBufferedStreams) {
  const ExperimentConfig config = MultiBatchConfig();
  const Streams buffered = BufferedStreams(config, kMultiBatchPeriod);

  TempDir dir("obs_stream");
  OutputFile events_file(dir.File("events.ndjson"));
  OutputFile telemetry_file(dir.File("telemetry.ndjson"));
  OutputFile spans_file(dir.File("spans.ndjson"));
  ASSERT_TRUE(events_file.is_open() && telemetry_file.is_open() &&
              spans_file.is_open());
  EventLog events;
  ClusterTimeSeries timeseries(kMultiBatchPeriod);
  SpanTracer spans;
  MetricsRegistry metrics;
  events.StreamTo(&events_file.stream());
  timeseries.StreamTo(&telemetry_file.stream());
  spans.log().StreamTo(&spans_file.stream());
  ExperimentConfig streamed = config;
  streamed.simulation.obs.event_log = &events;
  streamed.simulation.obs.timeseries = &timeseries;
  streamed.simulation.obs.spans = &spans;
  streamed.simulation.obs.metrics = &metrics;
  const ExperimentRun run = RunExperiment(streamed);

  ASSERT_GT(run.result.machine_fault_kills, 0);
  ASSERT_GT(run.result.ckpt_writes_completed, 0);
  // Several batches went to disk during the run in every stream.
  EXPECT_GT(events.size(), 3 * kBatch);
  EXPECT_GT(timeseries.size(), 3 * kBatch);
  EXPECT_GT(spans.log().size(), 2 * kBatch);

  events.WriteNdjson(events_file.stream());
  const TelemetryDigest digest =
      TelemetryStreamDigest(timeseries, run.result.jobs);
  timeseries.WriteNdjson(telemetry_file.stream(), &digest);
  spans.log().WriteNdjson(spans_file.stream());
  ASSERT_TRUE(events_file.Commit());
  ASSERT_TRUE(telemetry_file.Commit());
  ASSERT_TRUE(spans_file.Commit());

  const std::pair<const OutputFile*, const std::string*> files[] = {
      {&events_file, &buffered.events},
      {&telemetry_file, &buffered.telemetry},
      {&spans_file, &buffered.spans}};
  for (const auto& [file, expected] : files) {
    SCOPED_TRACE(file->path());
    EXPECT_TRUE(ReadFile(file->path()) == *expected)
        << "streamed file differs from the buffered stream";
    EXPECT_EQ(file->sha256(), Sha256Hex(*expected));
    EXPECT_FALSE(std::filesystem::exists(file->path() + ".partial"));
  }
  // The digest line closes the file, exactly as the buffered writer wrote it.
  EXPECT_TRUE(IsTelemetryDigestLine(buffered.telemetry.substr(
      buffered.telemetry.rfind('\n', buffered.telemetry.size() - 2) + 1)));
}

// The committed goldens, produced by streaming sinks, without regenerating
// anything: each golden must come out byte for byte.
TEST(ObsStreamTest, StreamedGoldenConfigsMatchCommittedGoldens) {
  struct Case {
    ExperimentConfig config;
    std::string events_golden;     // empty: no event sink
    std::string telemetry_golden;  // empty: no telemetry sink
    std::string spans_golden;      // empty: no span sink
  };
  const Case cases[] = {
      {GoldenConfig(), "events.ndjson", "", ""},
      {GoldenConfig(), "", "telemetry.ndjson", ""},
      {FaultGoldenConfig(), "events_fault.ndjson", "telemetry_fault.ndjson", ""},
      {FaultGoldenConfig(), "", "", "spans.ndjson"},
  };
  for (const Case& c : cases) {
    std::ostringstream events_out;
    std::ostringstream telemetry_out;
    std::ostringstream spans_out;
    EventLog events;
    ClusterTimeSeries timeseries(Hours(6));
    SpanTracer spans;
    ExperimentConfig config = c.config;
    if (!c.events_golden.empty()) {
      events.StreamTo(&events_out);
      config.simulation.obs.event_log = &events;
    }
    if (!c.telemetry_golden.empty()) {
      timeseries.StreamTo(&telemetry_out);
      config.simulation.obs.timeseries = &timeseries;
    }
    if (!c.spans_golden.empty()) {
      spans.log().StreamTo(&spans_out);
      config.simulation.obs.spans = &spans;
    }
    const ExperimentRun run = RunExperiment(config);
    if (!c.events_golden.empty()) {
      SCOPED_TRACE(c.events_golden);
      events.WriteNdjson(events_out);
      EXPECT_TRUE(events_out.str() == ReadFile(GoldenPath(c.events_golden)));
    }
    if (!c.telemetry_golden.empty()) {
      SCOPED_TRACE(c.telemetry_golden);
      const TelemetryDigest digest =
      TelemetryStreamDigest(timeseries, run.result.jobs);
      timeseries.WriteNdjson(telemetry_out, &digest);
      EXPECT_TRUE(telemetry_out.str() ==
                  ReadFile(GoldenPath(c.telemetry_golden)));
    }
    if (!c.spans_golden.empty()) {
      SCOPED_TRACE(c.spans_golden);
      spans.log().WriteNdjson(spans_out);
      EXPECT_TRUE(spans_out.str() == ReadFile(GoldenPath(c.spans_golden)));
    }
  }
}

// A streaming sink holds at most one batch at any point of the run: its
// buffer is reserved at one batch and a std::vector's capacity never shrinks,
// so a capacity of one batch after the run bounds every moment of it. The
// bound is the same for a 3-day and a 30-day run.
TEST(ObsStreamTest, StreamingSinksHoldAtMostOneBatch) {
  for (const int days : {3, 30}) {
    SCOPED_TRACE(std::to_string(days) + " days");
    CountingBuf sink;
    std::ostream out(&sink);
    EventLog events;
    ClusterTimeSeries timeseries;
    SpanTracer spans;
    events.StreamTo(&out);
    timeseries.StreamTo(&out);
    spans.log().StreamTo(&out);
    ExperimentConfig config = ExperimentConfig::BenchScale(days, /*seed=*/42);
    config.simulation.obs.event_log = &events;
    config.simulation.obs.timeseries = &timeseries;
    config.simulation.obs.spans = &spans;
    RunExperiment(config);

    EXPECT_GT(events.size(), 3 * kBatch);
    EXPECT_GT(timeseries.size(), 3 * kBatch);
    EXPECT_GT(spans.log().size(), kBatch);
    EXPECT_LE(events.events().capacity(), kBatch);
    EXPECT_LE(timeseries.samples().capacity(), kBatch);
    EXPECT_LE(spans.log().spans().capacity(), kBatch);
    EXPECT_GT(sink.bytes(), 0u);
  }
}

// RecordBuffer on its own: records filled in place after Append survive a
// batch boundary, batches drop in order through `on_drop`, and the tail
// WriteNdjson writes completes the stream.
TEST(ObsStreamTest, RecordBufferDropsFullBatchesOnTheNextAppend) {
  std::ostringstream streamed;
  std::ostringstream buffered;
  RecordBuffer<SpanRecord> stream;
  RecordBuffer<SpanRecord> whole;
  stream.StreamTo(&streamed);
  std::vector<JobId> dropped;
  const int n = static_cast<int>(3 * kBatch + 17);
  for (int i = 0; i < n; ++i) {
    for (RecordBuffer<SpanRecord>* buffer : {&stream, &whole}) {
      SpanRecord& span = buffer->Append(
          [&](const SpanRecord& done) { dropped.push_back(done.job); });
      span.job = i;
      span.start = 60 * i;
      span.dur = i % 7;
    }
    ASSERT_LE(stream.held().size(), kBatch);
  }
  EXPECT_EQ(stream.size(), static_cast<size_t>(n));
  EXPECT_EQ(whole.size(), static_cast<size_t>(n));
  EXPECT_EQ(stream.held().size(), static_cast<size_t>(n) - 3 * kBatch);
  ASSERT_EQ(dropped.size(), 3 * kBatch);
  for (size_t i = 0; i < dropped.size(); ++i) {
    ASSERT_EQ(dropped[i], static_cast<JobId>(i));
  }
  stream.WriteNdjson(streamed);
  whole.WriteNdjson(buffered);
  EXPECT_TRUE(streamed.str() == buffered.str());
}

// --------------------------------------------------------------- OutputFile

TEST(OutputFileTest, CommitRenamesThePartialFileAndHashesEveryByte) {
  TempDir dir("output_file");
  const std::string path = dir.File("big.txt");
  // Longer than the buffer, so the hash spans several drains.
  std::string expected;
  for (int i = 0; expected.size() < 3 * OutputFile::kBufferBytes + 5; ++i) {
    expected += "line " + std::to_string(i) + '\n';
  }
  OutputFile file(path);
  ASSERT_TRUE(file.is_open());
  file.stream() << expected.substr(0, 100);
  file.stream().write(expected.data() + 100,
                      static_cast<std::streamsize>(expected.size() - 100));
  EXPECT_TRUE(std::filesystem::exists(path + ".partial"));
  EXPECT_FALSE(std::filesystem::exists(path));
  ASSERT_TRUE(file.Commit());
  EXPECT_FALSE(std::filesystem::exists(path + ".partial"));
  EXPECT_TRUE(ReadFile(path) == expected);
  EXPECT_EQ(file.sha256(), Sha256Hex(expected));
  EXPECT_FALSE(file.is_open());
}

TEST(OutputFileTest, UncommittedFileLeavesNothingBehind) {
  TempDir dir("output_file_abandoned");
  const std::string path = dir.File("abandoned.txt");
  {
    OutputFile file(path);
    ASSERT_TRUE(file.is_open());
    file.stream() << "half a stream\n";
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".partial"));
}

TEST(OutputFileTest, UnwritablePathFailsToOpen) {
  TempDir dir("output_file_missing");
  OutputFile file(dir.File("no/such/dir/x.txt"));
  EXPECT_FALSE(file.is_open());
  EXPECT_FALSE(file.Commit());
}

TEST(OutputFileTest, EmptyFileCommitsWithTheEmptyDigest) {
  TempDir dir("output_file_empty");
  OutputFile file(dir.File("empty.txt"));
  ASSERT_TRUE(file.Commit());
  EXPECT_TRUE(std::filesystem::exists(dir.File("empty.txt")));
  EXPECT_EQ(file.sha256(), Sha256Hex(""));
}

}  // namespace
}  // namespace philly
