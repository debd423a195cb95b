#include "src/trace/trace_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/sha256.h"
#include "src/common/strings.h"
#include "src/core/experiment.h"
#include "src/sched/simulation.h"
#include "src/trace/philly_format.h"

namespace philly {
namespace {

std::vector<JobRecord> RunSmall() {
  WorkloadConfig workload = WorkloadConfig::Scaled(1, 13);
  workload.prepopulate_busy_gpus = 300;
  SimulationConfig config;
  config.vcs = workload.vcs;
  ClusterSimulation sim(config, WorkloadGenerator(workload).Generate());
  return sim.Run().jobs;
}

TEST(PlacementCodecTest, RoundTrip) {
  Placement p;
  p.shards.push_back({3, 8});
  p.shards.push_back({17, 2});
  const std::string encoded = EncodePlacement(p);
  EXPECT_EQ(encoded, "3:8|17:2");
  const Placement decoded = DecodePlacement(encoded);
  ASSERT_EQ(decoded.shards.size(), 2u);
  EXPECT_EQ(decoded.shards[0].server, 3);
  EXPECT_EQ(decoded.shards[0].gpus, 8);
  EXPECT_EQ(decoded.shards[1].server, 17);
  EXPECT_EQ(decoded.shards[1].gpus, 2);
}

TEST(PlacementCodecTest, EmptyPlacement) {
  EXPECT_EQ(EncodePlacement(Placement{}), "");
  EXPECT_TRUE(DecodePlacement("").Empty());
}

TEST(TraceIoTest, FullRoundTrip) {
  const auto jobs = RunSmall();
  ASSERT_GT(jobs.size(), 500u);

  std::stringstream jobs_csv;
  std::stringstream attempts_csv;
  std::stringstream util_csv;
  std::stringstream stdout_log;
  TraceWriter::WriteJobs(jobs, jobs_csv);
  TraceWriter::WriteAttempts(jobs, attempts_csv);
  TraceWriter::WriteUtilSegments(jobs, util_csv);
  TraceWriter::WriteStdoutLogs(jobs, stdout_log);

  const auto restored =
      TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
  ASSERT_EQ(restored.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& a = jobs[i];
    const JobRecord& b = restored[i];
    EXPECT_EQ(a.spec.id, b.spec.id);
    EXPECT_EQ(a.spec.vc, b.spec.vc);
    EXPECT_EQ(a.spec.user, b.spec.user);
    EXPECT_EQ(a.spec.num_gpus, b.spec.num_gpus);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.finish_time, b.finish_time);
    EXPECT_EQ(a.InitialQueueDelay(), b.InitialQueueDelay());
    EXPECT_EQ(a.executed_epochs, b.executed_epochs);
    ASSERT_EQ(a.waits.size(), b.waits.size());
    for (size_t k = 0; k < a.waits.size(); ++k) {
      EXPECT_EQ(a.waits[k].ready_time, b.waits[k].ready_time);
      EXPECT_EQ(a.waits[k].wait, b.waits[k].wait);
      EXPECT_EQ(a.waits[k].fair_share_time, b.waits[k].fair_share_time);
      EXPECT_EQ(a.waits[k].fragmentation_time, b.waits[k].fragmentation_time);
      EXPECT_EQ(a.waits[k].sched_attempts, b.waits[k].sched_attempts);
    }
    ASSERT_EQ(a.attempts.size(), b.attempts.size());
    for (size_t k = 0; k < a.attempts.size(); ++k) {
      EXPECT_EQ(a.attempts[k].start, b.attempts[k].start);
      EXPECT_EQ(a.attempts[k].end, b.attempts[k].end);
      EXPECT_EQ(a.attempts[k].failed, b.attempts[k].failed);
      EXPECT_EQ(a.attempts[k].preempted, b.attempts[k].preempted);
      EXPECT_EQ(EncodePlacement(a.attempts[k].placement),
                EncodePlacement(b.attempts[k].placement));
      EXPECT_EQ(a.attempts[k].log_tail, b.attempts[k].log_tail);
    }
    ASSERT_EQ(a.util_segments.size(), b.util_segments.size());
    for (size_t k = 0; k < a.util_segments.size(); ++k) {
      // The writer emits the shortest round-trip form, so the value is exact.
      EXPECT_EQ(a.util_segments[k].expected_util, b.util_segments[k].expected_util);
      EXPECT_EQ(a.util_segments[k].duration, b.util_segments[k].duration);
      EXPECT_EQ(a.util_segments[k].num_servers, b.util_segments[k].num_servers);
    }
  }
}

TEST(TraceIoTest, HeadersPresent) {
  const std::vector<JobRecord> empty;
  std::stringstream out;
  TraceWriter::WriteJobs(empty, out);
  EXPECT_NE(out.str().find("job_id,vc,user"), std::string::npos);
  std::stringstream attempts;
  TraceWriter::WriteAttempts(empty, attempts);
  EXPECT_NE(attempts.str().find("placement"), std::string::npos);
}

TEST(TraceIoTest, WriteDirectoryCreatesFiles) {
  const auto jobs = RunSmall();
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(TraceWriter::WriteDirectory(jobs, dir));
  std::ifstream check(dir + "/jobs.csv");
  EXPECT_TRUE(check.good());
}

TEST(TraceIoTest, WriteDirectoryFailsForMissingPath) {
  EXPECT_FALSE(TraceWriter::WriteDirectory({}, "/nonexistent/path/here"));
}

// A directory whose file `name` opens but takes no bytes (a link to
// /dev/full), or "" where that device does not exist.
std::string DirWithFullFile(const std::string& label, const char* name) {
  if (!std::filesystem::exists("/dev/full")) {
    return "";
  }
  const std::string dir = ::testing::TempDir() + "/full_" + label;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir + "/" + name);
  return dir;
}

TEST(TraceIoTest, WriteDirectoryFailsWhenAWriteFails) {
  const std::string dir = DirWithFullFile("native", "jobs.csv");
  if (dir.empty()) {
    GTEST_SKIP() << "no /dev/full";
  }
  EXPECT_FALSE(TraceWriter::WriteDirectory({}, dir));
}

TEST(TraceIoTest, PhillyTracesWriteDirectoryFailsWhenAWriteFails) {
  const std::string dir = DirWithFullFile("philly", "cluster_gpu_util");
  if (dir.empty()) {
    GTEST_SKIP() << "no /dev/full";
  }
  EXPECT_FALSE(PhillyTracesExporter(ClusterConfig::Small()).WriteDirectory({}, dir));
}

// A valid two-job trace: one attempt, segment and log frame per job.
struct TraceText {
  std::string jobs =
      "job_id,vc,user,submit_time,num_gpus,status,queue_delay_s,finish_time,"
      "attempts,retries,gpu_seconds,executed_epochs,planned_epochs,"
      "logs_convergence,model\n"
      "1,0,5,100,8,Passed,0,5000,1,0,39200,10,10,0,resnet\n"
      "2,1,6,200,1,Unsuccessful,60,9000,1,0,8740,3,20,1,lstm\n";
  std::string attempts =
      "job_id,attempt,start,end,failed,preempted,placement,ready_time,wait_s,"
      "fair_share_s,fragmentation_s,sched_attempts,prerun\n"
      "1,0,100,5000,0,0,3:8,100,0,0,0,0,0\n"
      "2,0,260,9000,1,0,7:1,200,60,20,40,3,0\n";
  std::string util =
      "job_id,segment,expected_util,duration_s,num_servers\n"
      "1,0,0.5,4900,1\n"
      "2,0,0.25,8740,1\n";
  std::string log =
      "=== job 2 attempt 0 lines 1\n"
      "MemoryError\n";

  std::vector<JobRecord> Read(std::string* error) const {
    std::stringstream jobs_csv(jobs);
    std::stringstream attempts_csv(attempts);
    std::stringstream util_csv(util);
    std::stringstream stdout_log(log);
    return TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log,
                                 error);
  }
};

TEST(TraceIoTest, ReaderReadsValidTrace) {
  std::string error = "stale";
  const auto jobs = TraceText().Read(&error);
  EXPECT_EQ(error, "");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[1].status, JobStatus::kUnsuccessful);
  EXPECT_EQ(jobs[1].spec.model, ModelFamily::kLstm);
  EXPECT_EQ(jobs[1].GpuSeconds(), 8740);
  ASSERT_EQ(jobs[1].waits.size(), 1u);
  EXPECT_EQ(jobs[1].waits[0].ready_time, 200);
  EXPECT_EQ(jobs[1].waits[0].wait, 60);
  EXPECT_EQ(jobs[1].waits[0].fair_share_time, 20);
  EXPECT_EQ(jobs[1].waits[0].fragmentation_time, 40);
  EXPECT_EQ(jobs[1].waits[0].sched_attempts, 3);
  ASSERT_EQ(jobs[1].attempts.size(), 1u);
  EXPECT_EQ(jobs[1].attempts[0].log_tail, std::vector<std::string>{"MemoryError"});
}

// Each row the writer could not have produced, alone, makes the reader
// return no jobs and an error naming its file, line and column.
TEST(TraceIoTest, ReaderRejectsMalformedRows) {
  struct Case {
    std::string TraceText::*file;
    std::string from;
    std::string to;
    std::string error;
  };
  const std::vector<Case> cases = {
      {&TraceText::jobs, "job_id,vc", "id,vc",
       "jobs.csv line 1 column 1: expected the header"},
      {&TraceText::jobs, "lstm\n", "lstm\ngarbage row\n",
       "jobs.csv line 4 column 2: expected 15 fields, found 1"},
      {&TraceText::jobs, "Unsuccessful", "Lost",
       "jobs.csv line 3 column 6: unknown status 'Lost'"},
      {&TraceText::jobs, "\n2,1,6", "\n2,4294967296,6",
       "jobs.csv line 3 column 2: '4294967296' is not a 32-bit integer"},
      {&TraceText::jobs, "\n2,1,6", "\n1,1,6", "jobs.csv line 3 column 1: job 1 appears twice"},
      {&TraceText::jobs, "5000,1,0,", "5000,1,1,",
       "jobs.csv line 2 column 10: retries must be one less than attempts"},
      {&TraceText::jobs, "5000,1,0,", "5000,2,1,",
       "jobs.csv line 2 column 9: 2 attempts, but job 1 has 1 in attempts.csv"},
      {&TraceText::jobs, "Unsuccessful,60", "Unsuccessful,61",
       "jobs.csv line 3 column 7: queue_delay_s differs from the first wait_s"},
      {&TraceText::jobs, ",8740,", ",8741,",
       "jobs.csv line 3 column 11: gpu_seconds differs from the sum of its attempts' GPU "
       "time in attempts.csv"},
      {&TraceText::jobs, ",lstm", ",gpt",
       "jobs.csv line 3 column 15: unknown model 'gpt'"},
      {&TraceText::jobs, ",resnet", ",ResNet",
       "jobs.csv line 2 column 15: unknown model 'ResNet'"},
      {&TraceText::attempts, "\n1,0,100", "\n999,0,100",
       "attempts.csv line 2 column 1: unknown job 999"},
      {&TraceText::attempts, "\n2,0,260", "\n2,1,260",
       "attempts.csv line 3 column 2: index 1 out of order, expected 0"},
      {&TraceText::attempts, "7:1", "notaplacement",
       "attempts.csv line 3 column 7: 'notaplacement' is not a placement"},
      {&TraceText::attempts, "7:1", "7:01",
       "attempts.csv line 3 column 7: '7:01' is not a placement"},
      {&TraceText::attempts, ",3,0\n", ",3,2\n",
       "attempts.csv line 3 column 13: expected 0 or 1"},
      {&TraceText::attempts, ",3,0\n", "\n", "attempts.csv line 3 column 12: expected 13 fields"},
      {&TraceText::util, "\n1,0", "\nbogus\n1,0",
       "gpu_util.csv line 2 column 2: expected 5 fields, found 1"},
      {&TraceText::util, "0.25", "nan",
       "gpu_util.csv line 3 column 3: 'nan' is not a finite number"},
      // Numbers are spelled as the writer spells them (std::to_chars).
      {&TraceText::jobs, "\n1,0,5", "\n01,0,5",
       "jobs.csv line 2 column 1: '01' is not canonical, expected '1'"},
      {&TraceText::jobs, ",39200,", ",39200.0,",
       "jobs.csv line 2 column 11: '39200.0' is not canonical, expected '39200'"},
      {&TraceText::jobs, "\n1,0,5", "\n1,-0,5",
       "jobs.csv line 2 column 2: '-0' is not canonical, expected '0'"},
      {&TraceText::util, "0.25", "0.250",
       "gpu_util.csv line 3 column 3: '0.250' is not canonical, expected '0.25'"},
      {&TraceText::log, " lines 1", "",
       "stdout.log line 1 column 1: expected \"=== job"},
      {&TraceText::log, "job 2", "job 424242",
       "stdout.log line 1 column 1: no attempt 0 of job 424242"},
      {&TraceText::log, "job 2", "job 99999999999999999999",
       "stdout.log line 1 column 1: expected \"=== job"},
      {&TraceText::log, "lines 1", "lines 2",
       "stdout.log line 2 column 1: the file ends inside a frame"},
      {&TraceText::log, "MemoryError\n", "MemoryError\norphan\n",
       "stdout.log line 3 column 1: expected \"=== job"},
  };
  for (const Case& c : cases) {
    TraceText text;
    std::string& file = text.*c.file;
    const size_t at = file.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    file.replace(at, c.from.size(), c.to);
    std::string error;
    EXPECT_TRUE(text.Read(&error).empty()) << c.error;
    EXPECT_EQ(error.substr(0, c.error.size()), c.error);
  }
}

std::string Join(const std::vector<std::string>& parts, char separator) {
  std::string joined;
  for (size_t i = 0; i < parts.size(); ++i) {
    joined += (i == 0 ? "" : std::string(1, separator)) + parts[i];
  }
  return joined;
}

// Every field of every row, replaced alone by text that is no value, is
// rejected at its own line and column.
TEST(TraceIoTest, ReaderNamesEveryUnparseableField) {
  const std::pair<std::string TraceText::*, std::string> files[] = {
      {&TraceText::jobs, "jobs.csv"},
      {&TraceText::attempts, "attempts.csv"},
      {&TraceText::util, "gpu_util.csv"}};
  for (const auto& [file, name] : files) {
    const std::string original = TraceText().*file;
    std::vector<std::string> lines;
    for (const std::string_view line : Split(original, '\n')) {
      lines.emplace_back(line);
    }
    for (size_t line = 1; line + 1 < lines.size(); ++line) {  // past the header
      std::vector<std::string> fields;
      for (const std::string_view field : Split(lines[line], ',')) {
        fields.emplace_back(field);
      }
      for (size_t column = 0; column < fields.size(); ++column) {
        std::vector<std::string> corrupted_fields = fields;
        corrupted_fields[column] = "1x";
        std::vector<std::string> corrupted = lines;
        corrupted[line] = Join(corrupted_fields, ',');
        TraceText text;
        text.*file = Join(corrupted, '\n');
        std::string error;
        EXPECT_TRUE(text.Read(&error).empty());
        const std::string expected = name + " line " + std::to_string(line + 1) +
                                     " column " + std::to_string(column + 1) + ": ";
        EXPECT_EQ(error.substr(0, expected.size()), expected) << error;
      }
    }
  }
}

// Regression: the stdout.log framing used to be a bare "=== job I attempt K"
// marker, so a log line that happened to look like a marker was re-parsed as
// one on read and the tail after it attached to the wrong attempt (or was
// dropped). The length-prefixed framing reads tails verbatim.
TEST(TraceIoTest, LogTailFramingSurvivesMarkerInjection) {
  JobRecord job;
  job.spec.id = 7;
  job.spec.num_gpus = 1;
  AttemptRecord attempt;
  attempt.index = 0;
  attempt.log_tail = {
      "normal line",
      "=== job 7 attempt 1",          // looks exactly like a legacy marker
      "=== job 999 attempt 0 lines 3",  // looks like a prefixed marker
      "trailing line",
  };
  job.attempts.push_back(attempt);

  std::stringstream jobs_csv;
  std::stringstream attempts_csv;
  std::stringstream util_csv;
  std::stringstream stdout_log;
  TraceWriter::WriteJobs({job}, jobs_csv);
  TraceWriter::WriteAttempts({job}, attempts_csv);
  TraceWriter::WriteUtilSegments({job}, util_csv);
  TraceWriter::WriteStdoutLogs({job}, stdout_log);

  const auto restored =
      TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
  ASSERT_EQ(restored.size(), 1u);
  ASSERT_EQ(restored[0].attempts.size(), 1u);
  EXPECT_EQ(restored[0].attempts[0].log_tail, attempt.log_tail);
}

// ------------------------------------------------------------ trace bytes

// The nine files `phillyctl simulate --days 1 --seed 42 --format both` writes,
// and their SHA-256 as Python's hashlib computed it. The digests pin the
// writers' bytes: the native trace's CsvWriter rows and log frames, and the
// philly-traces exporter's JSON and CSV.
constexpr std::pair<const char*, const char*> kOneDayTraceDigests[] = {
    {"jobs.csv", "5c37302b5950b097e378ebc84f40a6857a73e620dba510cfd9f32288601bcd82"},
    {"attempts.csv", "d2f4469cbd83280f9add51e6e3a9838e43f137d58f921f44fd3d4d8050a2dcbb"},
    {"gpu_util.csv", "58b6845ba6750f73dac2497af93d33607dac899e5549f59773a8d5333ae7a1cb"},
    {"stdout.log", "3714077022e942add66e5e0f79aef045bec7b9d4c06941a23aac4ba002280689"},
    {"cluster_job_log", "4f1e4d4a6a4e25d42f2bdbfad173a91a3831c2902b34406f725fd772575f6d95"},
    {"cluster_machine_list",
     "e2983024b8c6b3f212345189b9febf3fa252214c35236bfc67468beb4905d5a7"},
    {"cluster_gpu_util", "7389ce071ce135ff858a1b72c8fd3e52e0d443162e37b44d0c542eda342a7dfe"},
    {"cluster_cpu_util", "7c9cfe221e741d3e165bb58a1af2d02390aa3153e619004b4c8ae949c54fcd9f"},
    {"cluster_mem_util", "29d753a87cd7cc1a578aa695e21376502ceee11921f9139759dd1e540809e64b"},
};

// The run `phillyctl simulate --days 1 --seed 42` makes.
const ExperimentRun& OneDayRun() {
  static const ExperimentRun run = [] {
    ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/42);
    config.simulation.scheduler = SchedulerConfig::Philly();
    return RunExperiment(config);
  }();
  return run;
}

std::string FreshTraceDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/trace_bytes_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(TraceBytesTest, OneDayRunMatchesPinnedDigests) {
  const ExperimentRun& run = OneDayRun();
  const std::string dir = FreshTraceDir("pinned");
  ASSERT_TRUE(TraceWriter::WriteDirectory(run.result.jobs, dir));
  ASSERT_TRUE(
      PhillyTracesExporter(run.config.simulation.cluster).WriteDirectory(run.result.jobs, dir));
  for (const auto& [name, digest] : kOneDayTraceDigests) {
    EXPECT_EQ(Sha256Hex(ReadBytes(dir + "/" + name)), digest) << name;
  }
}

// Reading a written trace back and writing it again gives the same bytes.
TEST(TraceBytesTest, ReadBackTraceRewritesSameBytes) {
  const std::string first = FreshTraceDir("first");
  const std::string second = FreshTraceDir("second");
  ASSERT_TRUE(TraceWriter::WriteDirectory(OneDayRun().result.jobs, first));
  std::string error = "stale";
  const std::vector<JobRecord> jobs = TraceReader::ReadDirectory(first, &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(jobs.size(), OneDayRun().result.jobs.size());
  ASSERT_TRUE(TraceWriter::WriteDirectory(jobs, second));
  for (const char* name : TraceWriter::kFileNames) {
    const std::string bytes = ReadBytes(first + "/" + name);
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_TRUE(ReadBytes(second + "/" + name) == bytes) << name << " differs";
  }
}

TEST(TraceIoTest, ReaderHandlesEmptyStreams) {
  std::stringstream empty1;
  std::stringstream empty2;
  std::stringstream empty3;
  std::stringstream empty4;
  std::string error;
  EXPECT_TRUE(TraceReader::ReadJobs(empty1, empty2, empty3, empty4, &error).empty());
  // The writer always writes a header.
  EXPECT_EQ(error.substr(0, 38), "jobs.csv line 1 column 1: expected the");
}

}  // namespace
}  // namespace philly
