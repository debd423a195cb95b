// The HTML dashboard's bytes, pinned. Each pin is the SHA-256 of the page
// `phillyctl` writes for one command line, computed before the dashboard was
// folded, when it rendered from whole buffered streams: `report --days 2
// --seed 42 --html` with and without `--spans-out`, and CI's fleet smoke
// configuration with and without `--collect-spans` on pools of 1 and 4
// threads. The page phillyctl now renders from folds must match each pin,
// and so must HtmlDashboardInput over the buffered streams, the oracle.

#include "src/core/html_report.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/sha256.h"
#include "src/core/cli_options.h"
#include "src/core/experiment.h"
#include "src/core/run_outputs.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_outputs.h"

namespace philly {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

Args Parse(std::vector<const char*> argv) {
  Args args;
  std::string error;
  EXPECT_TRUE(ParseArgs(argv, &args, &error)) << error;
  return args;
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

 private:
  std::filesystem::path path_;
};

struct ReportCommand {
  Args args;
  ExperimentConfig config;
  std::string title;
};

ReportCommand ParseReport(std::vector<const char*> argv) {
  ReportCommand command{Parse(argv), {}, ""};
  const Args& args = command.args;
  const int days = static_cast<int>(args.Int("--days"));
  command.config =
      ExperimentConfig::BenchScale(days, static_cast<uint64_t>(args.Int("--seed")));
  ApplySchedulerOptions(args, args.Text("--scheduler"), args.Text("--retry"),
                        &command.config.simulation);
  command.title = "philly " + command.config.simulation.scheduler.name + " seed " +
                  std::to_string(command.config.simulation.seed) + ", " +
                  std::to_string(days) + " days";
  return command;
}

// The dashboard `phillyctl report` writes for `argv`, which names --html and
// may name --spans-out: the outputs' own wiring and write steps.
std::string ReportDashboard(std::vector<const char*> argv) {
  ReportCommand command = ParseReport(argv);
  TempDir dir("dashboard_pin");
  SimulateRun view;
  view.title = command.title;
  std::vector<RunOutput> declared;
  for (RunOutput& output : SimulateOutputs(&view)) {
    if (command.args.Has(output.flag)) {
      output.path = dir.File(output.flag.substr(2));
      declared.push_back(std::move(output));
    }
  }
  RunOutputs outputs("", std::move(declared));
  EXPECT_TRUE(outputs.Open());
  outputs.Attach(&view, &command.config.simulation.obs);
  const ExperimentRun run = RunExperiment(command.config);
  view.jobs = &run.result.jobs;
  // No recorder is kept whole: each held at most one batch.
  EXPECT_LE(view.events.events().capacity(), RecordBuffer<SchedEvent>::kBatchRecords);
  EXPECT_LE(view.telemetry.samples().capacity(), RecordBuffer<TelemetrySample>::kBatchRecords);
  EXPECT_LE(view.spans.log().spans().capacity(), RecordBuffer<SpanRecord>::kBatchRecords);
  RunManifest manifest;
  ::testing::internal::CaptureStdout();
  EXPECT_TRUE(outputs.Finish(&manifest));
  ::testing::internal::GetCapturedStdout();
  return ReadFile(dir.File("html"));
}

// The same page from whole buffered streams, through HtmlDashboardInput.
std::string ReportOracle(std::vector<const char*> argv) {
  ReportCommand command = ParseReport(argv);
  EventLog events;
  ClusterTimeSeries telemetry;
  SpanTracer spans;
  ObservabilityConfig& obs = command.config.simulation.obs;
  obs.event_log = &events;
  obs.timeseries = &telemetry;
  if (command.args.Has("--spans-out")) {
    obs.spans = &spans;
  }
  const ExperimentRun run = RunExperiment(command.config);
  HtmlDashboardInput dashboard;
  dashboard.title = command.title;
  dashboard.samples = &telemetry.samples();
  dashboard.events = &events.events();
  dashboard.jobs = &run.result.jobs;
  if (obs.spans != nullptr) {
    dashboard.spans = &spans.log().spans();
  }
  return RenderHtmlDashboard(dashboard);
}

TEST(DashboardPinTest, ReportDashboardMatchesPinnedBytes) {
  struct Case {
    std::vector<const char*> argv;
    const char* sha256;
  };
  const Case cases[] = {
      {{"report", "--days", "2", "--seed", "42", "--html", "d.html"},
       "1791332b64cdba6df7a57697bb07016d3bc3f6961d3fd6637f98f91267cacf42"},
      {{"report", "--days", "2", "--seed", "42", "--html", "d.html", "--spans-out", "s.ndjson"},
       "7b75fe98c0e9cceecbfbccabea18635bf83069857e6adb0ec00d811b0dd3a8a2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.argv.size() > 7 ? "with --spans-out" : "without --spans-out");
    const std::string html = ReportDashboard(c.argv);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_EQ(Sha256Hex(html), c.sha256);
    EXPECT_EQ(Sha256Hex(ReportOracle(c.argv)), c.sha256);
  }
}

FleetConfig SmokeFleet(bool collect_spans, int threads) {
  std::vector<ClusterConfig> clusters;
  std::string error;
  EXPECT_TRUE(ParseClustersSpec("2x8x8,1x8x8,1x4x4", &clusters, &error)) << error;
  FleetConfig config;
  config.router.policy = RouterPolicy::kSpillover;
  config.router.spill_threshold = 2;
  config.collect_spans = collect_spans;
  config.threads = threads;
  for (size_t i = 0; i < clusters.size(); ++i) {
    config.clusters.push_back({"cluster" + std::to_string(i),
                               FleetClusterExperiment(clusters[i], 1, 7, static_cast<int>(i))});
  }
  return config;
}

constexpr char kFleetTitle[] = "philly fleet (spillover) seed 7, 1 days";

// The dashboard `phillyctl fleet --out DIR --html FILE` writes for CI's smoke
// configuration: its members stream and the page renders from their folds.
std::string FleetDashboard(bool collect_spans, int threads) {
  FleetConfig config = SmokeFleet(collect_spans, threads);
  TempDir dir("fleet_dashboard_pin");
  FleetRun run;
  run.title = kFleetTitle;
  RunOutputs outputs(dir.File("out"),
                     FleetOutputs(&run, config, dir.File("out"), dir.File("dashboard.html")));
  EXPECT_TRUE(outputs.Open());
  AttachFleet(&outputs, &run, &config);
  FleetSimulation(config).Run(&run.result);
  SummarizeFleet(config, "spillover", &run);
  RunManifest manifest;
  ::testing::internal::CaptureStdout();
  EXPECT_TRUE(outputs.Finish(&manifest));
  ::testing::internal::GetCapturedStdout();
  return ReadFile(dir.File("dashboard.html"));
}

// p95 of initial queueing delay, in minutes, as the fleet table reports it.
double P95QueueDelayMinutes(const std::vector<JobRecord>& jobs) {
  std::vector<double> delays;
  for (const JobRecord& job : jobs) {
    delays.push_back(ToMinutes(job.InitialQueueDelay()));
  }
  if (delays.empty()) {
    return 0.0;
  }
  std::sort(delays.begin(), delays.end());
  const size_t index = static_cast<size_t>(0.95 * static_cast<double>(delays.size() - 1) + 0.5);
  return delays[std::min(index, delays.size() - 1)];
}

// The same page from buffered members: their streams concatenated in cluster
// order, the route log's events last, through HtmlDashboardInput.
std::string FleetOracle(bool collect_spans, int threads) {
  FleetConfig config = SmokeFleet(collect_spans, threads);
  config.collect_events = true;
  config.collect_telemetry = true;
  const FleetResult result = FleetSimulation(config).Run();
  FleetDashboardSection section;
  section.router = "spillover";
  section.total_jobs = result.total_jobs;
  section.spilled_jobs = result.spilled_jobs;
  std::vector<TelemetrySample> samples;
  std::vector<SchedEvent> events;
  std::vector<JobRecord> jobs;
  std::vector<SpanRecord> spans;
  for (size_t i = 0; i < result.clusters.size(); ++i) {
    const FleetClusterResult& cluster = result.clusters[i];
    double occupancy_sum = 0.0;
    for (const TelemetrySample& s : cluster.telemetry.samples()) {
      occupancy_sum += s.occupancy;
    }
    const double mean_occ =
        cluster.telemetry.samples().empty()
            ? 0.0
            : occupancy_sum / static_cast<double>(cluster.telemetry.samples().size());
    section.clusters.push_back({cluster.name,
                                config.clusters[i].experiment.simulation.cluster.TotalGpus(),
                                cluster.num_jobs, cluster.home_jobs, cluster.routed_in,
                                cluster.routed_away, mean_occ,
                                P95QueueDelayMinutes(cluster.result.jobs)});
    samples.insert(samples.end(), cluster.telemetry.samples().begin(),
                   cluster.telemetry.samples().end());
    events.insert(events.end(), cluster.events.events().begin(), cluster.events.events().end());
    jobs.insert(jobs.end(), cluster.result.jobs.begin(), cluster.result.jobs.end());
    spans.insert(spans.end(), cluster.spans.log().spans().begin(),
                 cluster.spans.log().spans().end());
  }
  events.insert(events.end(), result.route_events.events().begin(),
                result.route_events.events().end());
  HtmlDashboardInput dashboard;
  dashboard.title = kFleetTitle;
  dashboard.samples = &samples;
  dashboard.events = &events;
  dashboard.jobs = &jobs;
  if (collect_spans) {
    dashboard.spans = &spans;
  }
  dashboard.fleet = &section;
  return RenderHtmlDashboard(dashboard);
}

TEST(DashboardPinTest, FleetDashboardMatchesPinnedBytesOnEveryPoolSize) {
  struct Case {
    bool collect_spans;
    const char* sha256;
  };
  const Case cases[] = {
      {false, "684889184d9d867025987eab7c5713d42d3b3d4ca6d9327c69908300ba2f1404"},
      {true, "e0126bc7130a63f7aad97ba57a262a4a6cd06eb1fce637221b6ce959201eea89"},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.collect_spans ? "with" : "without") +
                   " --collect-spans on " + std::to_string(threads) + " threads");
      const std::string html = FleetDashboard(c.collect_spans, threads);
      EXPECT_NE(html.find("Fleet routing"), std::string::npos);
      EXPECT_EQ(Sha256Hex(html), c.sha256);
      EXPECT_EQ(Sha256Hex(FleetOracle(c.collect_spans, threads)), c.sha256);
    }
  }
}

// The fleet's fold equals one fold over the members' telemetry concatenated
// in cluster order, whichever order the members run and end in: here member
// 2 ends first, member 1 runs on while member 0 ends, then member 1 ends.
TEST(FleetDashboardFoldTest, FoldsMembersInClusterOrderWhateverOrderTheyEnd) {
  constexpr size_t kMembers = 3;
  constexpr size_t kBatch = RecordBuffer<TelemetrySample>::kBatchRecords;
  ClusterTimeSeries members[kMembers];
  FleetDashboardFold fleet(kMembers);
  for (size_t i = 0; i < kMembers; ++i) {
    members[i].StreamTo(nullptr);
    fleet.Follow(i, members[i]);
    members[i].BeginRun(i);
  }
  std::vector<std::vector<TelemetrySample>> streams(kMembers);
  const auto append = [&](size_t i, size_t n) {
    for (size_t k = 0; k < n; ++k) {
      TelemetrySample& sample = members[i].AppendSample(members[i].NextSampleTime());
      // Values whose sums round differently in different orders.
      const double x = static_cast<double>((sample.time * 7919 + 13 * i) % 1000) / 7.0;
      sample.occupancy = x / 1000.0;
      sample.util_expected_pct = x / 3.0;
      sample.util_observed_pct = x / 11.0 + 0.1;
      sample.queued_jobs = static_cast<int>(x) % 17;
      sample.running_jobs = static_cast<int>(x) % 23;
      sample.backoffs = static_cast<int64_t>(i * 100000 + k);
      streams[i].push_back(sample);
    }
  };
  append(2, kBatch + 500);
  members[2].FoldHeld();
  append(1, 2 * kBatch + 10);
  append(0, 3 * kBatch + 1);
  members[0].FoldHeld();
  append(1, kBatch + 7);
  members[1].FoldHeld();

  FleetResult result;
  result.clusters.resize(kMembers);
  DashboardFold concatenated;
  for (const std::vector<TelemetrySample>& stream : streams) {
    for (const TelemetrySample& sample : stream) {
      concatenated.Add(sample);
    }
  }
  for (const FleetClusterResult& cluster : result.clusters) {
    concatenated.jobs.push_back(&cluster.result.jobs);
  }
  const DashboardFold& folded = fleet.Finish(result);
  // The page prints four digits; the window sums must agree to the bit.
  ASSERT_EQ(folded.rollup.windows().size(), concatenated.rollup.windows().size());
  for (const auto& [start, window] : concatenated.rollup.windows()) {
    const TelemetryWindow& other = folded.rollup.windows().at(start);
    EXPECT_EQ(other.samples, window.samples) << start;
    EXPECT_EQ(other.occupancy_sum, window.occupancy_sum) << start;
    EXPECT_EQ(other.util_expected_sum, window.util_expected_sum) << start;
    EXPECT_EQ(other.util_observed_sum, window.util_observed_sum) << start;
    EXPECT_EQ(other.queued_max, window.queued_max) << start;
    EXPECT_EQ(other.running_max, window.running_max) << start;
  }
  EXPECT_EQ(folded.last.backoffs, streams[2].back().backoffs);
  EXPECT_EQ(RenderHtmlDashboard("t", folded), RenderHtmlDashboard("t", concatenated));
}

}  // namespace
}  // namespace philly
