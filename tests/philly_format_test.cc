#include "src/trace/philly_format.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/core/analysis.h"
#include "src/sched/simulation.h"
#include "tests/reference/csv_reader.h"

namespace philly {
namespace {

std::vector<JobRecord> RunTiny() {
  WorkloadConfig workload = WorkloadConfig::Scaled(1, 31);
  workload.prepopulate_busy_gpus = 200;
  SimulationConfig config;
  config.vcs = workload.vcs;
  ClusterSimulation sim(config, WorkloadGenerator(workload).Generate());
  return sim.Run().jobs;
}

TEST(PhillyFormatTest, TimestampsMatchCollectionWindow) {
  PhillyTracesExporter exporter(ClusterConfig::PaperScale());
  // t = 0 is the nominal window start (Oct 2017, per §2.4).
  EXPECT_EQ(exporter.Timestamp(0), "2017-10-01 00:00:00");
  EXPECT_EQ(exporter.Timestamp(Days(1) + Hours(2) + Minutes(3) + 4),
            "2017-10-02 02:03:04");
}

TEST(PhillyFormatTest, IdentifierFormats) {
  EXPECT_EQ(PhillyTracesExporter::VcHash(0).size(), 10u);
  EXPECT_NE(PhillyTracesExporter::VcHash(0), PhillyTracesExporter::VcHash(1));
  EXPECT_EQ(PhillyTracesExporter::UserHash(5).size(), 10u);
  EXPECT_EQ(PhillyTracesExporter::MachineIp(0), "10.1.0.42");
  EXPECT_EQ(PhillyTracesExporter::MachineIp(300), "10.2.44.42");
}

TEST(PhillyFormatTest, JobLogIsWellFormedJson) {
  const auto jobs = RunTiny();
  PhillyTracesExporter exporter(ClusterConfig::PaperScale());
  std::ostringstream out;
  exporter.WriteJobLog(jobs, out);
  const std::string text = out.str();
  // Structural sanity: array brackets, balanced braces, one entry per job.
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text[text.size() - 2], ']');
  int depth = 0;
  int max_depth = 0;
  for (char c : text) {
    if (c == '{') {
      max_depth = std::max(max_depth, ++depth);
    } else if (c == '}') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_GE(max_depth, 3);  // job -> attempt -> detail nesting
  size_t entries = 0;
  size_t pos = 0;
  while ((pos = text.find("\"jobid\": \"application_", pos)) != std::string::npos) {
    ++entries;
    ++pos;
  }
  EXPECT_EQ(entries, jobs.size());
  // Status vocabulary matches the public trace.
  EXPECT_EQ(text.find("\"Unsuccessful\""), std::string::npos);
  EXPECT_NE(text.find("\"Pass\""), std::string::npos);
}

TEST(PhillyFormatTest, MachineListMatchesCluster) {
  const auto cluster = ClusterConfig::PaperScale();
  PhillyTracesExporter exporter(cluster);
  std::ostringstream out;
  exporter.WriteMachineList(out);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);  // header
  int machines = 0;
  int gpus = 0;
  while (std::getline(in, line)) {
    ++machines;
    const auto comma = line.rfind(',');
    gpus += std::stoi(line.substr(comma + 1));
  }
  EXPECT_EQ(machines, cluster.TotalServers());
  EXPECT_EQ(gpus, cluster.TotalGpus());
}

TEST(PhillyFormatTest, GpuUtilRowsAreSane) {
  const auto jobs = RunTiny();
  PhillyTracesExporter exporter(ClusterConfig::PaperScale());
  std::ostringstream out;
  std::ostringstream cpu;
  std::ostringstream mem;
  exporter.WriteUtil(jobs, out, cpu, mem);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time,machineId,gpu_util");
  int rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    const auto last_comma = line.rfind(',');
    const double util = std::stod(line.substr(last_comma + 1));
    ASSERT_GE(util, 0.0);
    ASSERT_LE(util, 100.0);
    ASSERT_EQ(line.substr(0, 8), "2017-10-");
  }
  EXPECT_GT(rows, 100);
}

TEST(PhillyFormatTest, MemUtilAccountsFreeMemory) {
  const auto jobs = RunTiny();
  PhillyTracesExporter exporter(ClusterConfig::PaperScale());
  std::ostringstream gpu;
  std::ostringstream cpu;
  std::ostringstream out;
  exporter.WriteUtil(jobs, gpu, cpu, out);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time,machineId,mem_total_gb,mem_free_gb");
  int rows = 0;
  while (std::getline(in, line) && rows < 2000) {
    ++rows;
    const auto parts = ParseCsvLine(line);
    ASSERT_EQ(parts.size(), 4u);
    const double total = std::stod(parts[2]);
    const double free = std::stod(parts[3]);
    ASSERT_GT(total, 0.0);
    ASSERT_GE(free, 0.0);
    ASSERT_LE(free, total);
  }
  EXPECT_GT(rows, 50);
}

TEST(PhillyFormatTest, WriteDirectoryProducesAllFiles) {
  const auto jobs = RunTiny();
  PhillyTracesExporter exporter(ClusterConfig::PaperScale());
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(exporter.WriteDirectory(jobs, dir));
  for (const char* name :
       {"cluster_job_log", "cluster_machine_list", "cluster_gpu_util",
        "cluster_cpu_util", "cluster_mem_util"}) {
    std::ifstream check(dir + "/" + name);
    EXPECT_TRUE(check.good()) << name;
  }
  EXPECT_FALSE(exporter.WriteDirectory(jobs, "/nonexistent/philly"));
}

TEST(PhillyImporterTest, TimestampRoundTrip) {
  PhillyTracesImporter importer;
  PhillyTracesExporter exporter(ClusterConfig::Small());
  for (SimTime t : {SimTime{0}, Hours(5) + 42, Days(40) + Minutes(3)}) {
    SimTime parsed = -1;
    ASSERT_TRUE(importer.ParseTimestamp(exporter.Timestamp(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  SimTime dummy = 0;
  EXPECT_FALSE(importer.ParseTimestamp("None", &dummy));
  EXPECT_FALSE(importer.ParseTimestamp("", &dummy));
}

TEST(PhillyImporterTest, ExportImportRoundTrip) {
  const auto jobs = RunTiny();
  PhillyTracesExporter exporter(ClusterConfig::PaperScale());
  std::ostringstream out;
  exporter.WriteJobLog(jobs, out);

  PhillyTracesImporter importer;
  std::string error;
  const auto imported = importer.ImportJobLog(out.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(imported.size(), jobs.size());

  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(imported[i].status, jobs[i].status) << i;
    EXPECT_EQ(imported[i].spec.submit_time, jobs[i].spec.submit_time);
    // Pre-run attempts are not exported; everything else must survive.
    size_t gang_attempts = 0;
    for (const auto& attempt : jobs[i].attempts) {
      gang_attempts += attempt.prerun ? 0 : 1;
    }
    ASSERT_EQ(imported[i].attempts.size(), gang_attempts);
    if (!imported[i].attempts.empty()) {
      EXPECT_EQ(imported[i].attempts.front().start, jobs[i].attempts.front().start);
      EXPECT_EQ(imported[i].attempts.back().end, jobs[i].attempts.back().end);
      EXPECT_EQ(imported[i].spec.num_gpus, jobs[i].spec.num_gpus);
      EXPECT_EQ(imported[i].InitialQueueDelay(), jobs[i].InitialQueueDelay());
      EXPECT_EQ(imported[i].attempts.front().placement.NumServers(),
                jobs[i].attempts.front().placement.NumServers());
    }
  }
  EXPECT_GT(importer.num_vcs(), 5);
  EXPECT_GT(importer.num_machines(), 10);
  // This repo's own export needs no tolerance.
  const PhillyTracesImporter::Tolerated& tolerated = importer.tolerated();
  EXPECT_EQ(tolerated.jobs_without_submit_time, 0);
  EXPECT_EQ(tolerated.attempts_without_times, 0);
  EXPECT_EQ(tolerated.other_statuses, 0);
  EXPECT_EQ(tolerated.placements_without_gpus, 0);
}

// What the public format forces the importer to tolerate is counted, one
// kind each; what is not a job log at all is an error naming where.
TEST(PhillyImporterTest, CountsWhatItTolerates) {
  PhillyTracesImporter importer;
  std::string error;
  const auto jobs = importer.ImportJobLog(R"([
      {"status": "Pass", "vc": "b", "user": "w", "submitted_time": "None", "attempts": []},
      {"status": "Weird", "vc": "a", "user": "u", "submitted_time": "2017-10-01 00:00:10",
       "attempts": [
         {"start_time": "None", "end_time": "2017-10-01 00:01:00", "detail": []},
         {"start_time": "2017-10-01 00:05:00", "end_time": "2017-10-01 00:04:00", "detail": []},
         {"start_time": "2017-10-01 00:02:00", "end_time": "2017-10-01 00:03:00",
          "detail": [{"ip": "m1", "gpus": []}, {"ip": "m2", "gpus": ["gpu0"]}]}]}])",
                                          &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].status, JobStatus::kUnsuccessful);
  ASSERT_EQ(jobs[0].attempts.size(), 1u);
  EXPECT_EQ(jobs[0].attempts[0].placement.NumGpus(), 1);
  const PhillyTracesImporter::Tolerated& tolerated = importer.tolerated();
  EXPECT_EQ(tolerated.jobs_without_submit_time, 1);
  EXPECT_EQ(tolerated.attempts_without_times, 2);
  EXPECT_EQ(tolerated.other_statuses, 1);
  EXPECT_EQ(tolerated.placements_without_gpus, 1);
  // Only the kept job's VC and user are counted, and they get the first ids.
  EXPECT_EQ(importer.num_vcs(), 1);
  EXPECT_EQ(importer.num_users(), 1);
  EXPECT_EQ(jobs[0].spec.vc, 0);
  EXPECT_EQ(jobs[0].spec.user, 0);
  PhillyTracesImporter empty;
  EXPECT_TRUE(empty.ImportJobLog("[{}]", &error).empty());
  EXPECT_EQ(empty.tolerated().jobs_without_submit_time, 1);
  EXPECT_EQ(empty.num_vcs(), 0);
  EXPECT_EQ(empty.num_users(), 0);

  const std::vector<std::pair<std::string, std::string>> kNotAJobLog = {
      {"{}", "root"}, {R"([{}, 5, "x"])", "entry 1"}, {"[[]]", "entry 0"}};
  for (const auto& [text, where] : kNotAJobLog) {
    error.clear();
    EXPECT_TRUE(importer.ImportJobLog(text, &error).empty()) << text;
    EXPECT_NE(error.find(where), std::string::npos) << error;
  }
}

TEST(PhillyImporterTest, AnalysesRunOnImportedData) {
  const auto jobs = RunTiny();
  PhillyTracesExporter exporter(ClusterConfig::PaperScale());
  std::ostringstream out;
  exporter.WriteJobLog(jobs, out);
  PhillyTracesImporter importer;
  const auto imported = importer.ImportJobLog(out.str());

  const auto status_native = AnalyzeStatus(jobs);
  const auto status_imported = AnalyzeStatus(imported);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(status_imported.by_status[static_cast<size_t>(s)].count,
              status_native.by_status[static_cast<size_t>(s)].count);
  }
  const auto runtimes = AnalyzeRunTimes(imported);
  EXPECT_GT(runtimes.cdf_minutes[0].Count(), 100.0);
  const auto locality = AnalyzeLocalityDelay(imported);
  EXPECT_FALSE(locality.five_to_eight.empty());
}

TEST(PhillyImporterTest, MalformedInputReportsError) {
  PhillyTracesImporter importer;
  std::string error;
  EXPECT_TRUE(importer.ImportJobLog("[{]", &error).empty());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace philly
