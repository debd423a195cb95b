// Golden determinism test: a fixed (seed, config) experiment must reproduce
// the committed scheduler event stream and Table 2 report byte for byte, on
// every machine and in CI. This guards the whole deterministic pipeline —
// workload generation, the scheduler's decision order, the placement index's
// canonical candidate orders, and the NDJSON/ report serialization — against
// accidental drift: any behavioural change shows up as a golden diff that has
// to be reviewed and regenerated on purpose.
//
// To regenerate after an intentional change:
//   PHILLY_UPDATE_GOLDEN=1 build/tests/golden_determinism_test
// then commit the rewritten files under tests/golden/ with the change that
// caused them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/common/sha256.h"
#include "src/common/table.h"
#include "src/fault/fault_process.h"
#include "src/fleet/fleet.h"
#include "src/core/span_analysis.h"
#include "src/obs/event_log.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/trace/trace_io.h"
#include "tests/golden_configs.h"

namespace philly {
namespace {

std::string FormatFraction(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", value);
  return buf;
}

// Renders Table 2 (delay causes) in a fixed format. Kept deliberately local
// to this test: the golden guards the analysis numbers, not phillyctl's
// presentation, and a fixed 4-decimal encoding avoids any locale or
// float-printing variance.
std::string RenderTable2(const DelayCauseResult& causes) {
  TextTable table({"bucket", "fair-share", "fragmentation", "out-of-order"});
  for (int b = 1; b < kNumSizeBuckets; ++b) {
    const auto& cell = causes.by_bucket[static_cast<size_t>(b)];
    table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                  std::to_string(cell.fair_share),
                  std::to_string(cell.fragmentation),
                  FormatFraction(causes.out_of_order_by_bucket[static_cast<size_t>(b)])});
  }
  std::ostringstream out;
  out << "=== Table 2: delay causes ===\n" << table.Render();
  out << "fair_share_time_fraction " << FormatFraction(causes.fair_share_time_fraction)
      << "\n";
  out << "fragmentation_time_fraction "
      << FormatFraction(causes.fragmentation_time_fraction) << "\n";
  out << "out_of_order_fraction " << FormatFraction(causes.out_of_order_fraction)
      << "\n";
  out << "out_of_order_benign_fraction "
      << FormatFraction(causes.out_of_order_benign_fraction) << "\n";
  return out.str();
}

bool UpdateRequested() {
  const char* env = std::getenv("PHILLY_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (UpdateRequested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  const std::string expected = ReadFileOrEmpty(path);
  ASSERT_FALSE(expected.empty())
      << path << " missing or empty; regenerate with PHILLY_UPDATE_GOLDEN=1";
  if (expected != actual) {
    // Locate the first differing line for a reviewable failure message.
    std::istringstream a(expected);
    std::istringstream b(actual);
    std::string la;
    std::string lb;
    int line = 0;
    while (true) {
      ++line;
      const bool ga = static_cast<bool>(std::getline(a, la));
      const bool gb = static_cast<bool>(std::getline(b, lb));
      if (!ga && !gb) {
        break;
      }
      if (la != lb || ga != gb) {
        FAIL() << name << " diverges at line " << line << "\n  golden: "
               << (ga ? la : "<eof>") << "\n  actual: " << (gb ? lb : "<eof>")
               << "\nIf the change is intentional, regenerate with "
                  "PHILLY_UPDATE_GOLDEN=1 and commit the diff.";
      }
    }
    FAIL() << name << " differs from golden (same lines, different bytes?)";
  }
}

TEST(GoldenDeterminismTest, EventStreamAndTable2MatchCommittedGolden) {
  EventLog log;
  ExperimentConfig config = GoldenConfig();
  config.simulation.obs.event_log = &log;
  const ExperimentRun run = RunExperiment(config);

  std::ostringstream events;
  log.WriteNdjson(events);
  CompareOrUpdate("events.ndjson", events.str());

  const DelayCauseResult causes = AnalyzeDelayCauses(run.result.jobs, &run.result);
  CompareOrUpdate("table2.txt", RenderTable2(causes));
}

// Same discipline for the telemetry stream: a fixed config must reproduce the
// committed NDJSON — samples, AR(1) utilization join, and digest line — byte
// for byte. A coarse six-hour cadence keeps the fixture around a hundred
// lines (the run drains for weeks after the one-day arrival window) while
// still covering the whole codec and both digest halves.
TEST(GoldenDeterminismTest, TelemetryStreamMatchesCommittedGolden) {
  ClusterTimeSeries timeseries(Hours(6));
  ExperimentConfig config = GoldenConfig();
  config.simulation.obs.timeseries = &timeseries;
  const ExperimentRun run = RunExperiment(config);

  const TelemetryDigest digest =
      TelemetryStreamDigest(timeseries, run.result.jobs);

  std::ostringstream stream;
  timeseries.WriteNdjson(stream, &digest);
  CompareOrUpdate("telemetry.ndjson", stream.str());
}

// Renders the Table 7 failure shares in a fixed 4-decimal encoding (same
// rationale as RenderTable2: the golden guards the numbers, not phillyctl's
// presentation).
std::string RenderTable7(const FailureAnalysisResult& failures) {
  TextTable table({"reason", "trials", "jobs", "users", "rtf-share"});
  for (const auto& row : failures.rows) {
    if (row.trials == 0) {
      continue;
    }
    table.AddRow({std::string(ToString(row.reason)), std::to_string(row.trials),
                  std::to_string(row.jobs), std::to_string(row.users),
                  FormatFraction(row.rtf_total_share)});
  }
  std::ostringstream out;
  out << "=== Table 7: failure shares ===\n" << table.Render();
  out << "total_trials " << failures.total_trials << "\n";
  out << "unsuccessful_rate " << FormatFraction(failures.unsuccessful_rate_all)
      << "\n";
  return out.str();
}

TEST(GoldenDeterminismTest, FaultEnabledStreamsMatchCommittedGolden) {
  EventLog log;
  ClusterTimeSeries timeseries(Hours(6));
  ExperimentConfig config = FaultGoldenConfig();
  config.simulation.obs.event_log = &log;
  config.simulation.obs.timeseries = &timeseries;
  const ExperimentRun run = RunExperiment(config);

  ASSERT_GT(run.result.machine_fault_kills, 0)
      << "fault golden must actually exercise the fault path";
  ASSERT_GT(run.result.ckpt_writes_completed, 0)
      << "fault golden must actually exercise the checkpoint I/O model";

  std::ostringstream events;
  log.WriteNdjson(events);
  CompareOrUpdate("events_fault.ndjson", events.str());

  CompareOrUpdate("table7_fault.txt", RenderTable7(AnalyzeFailures(run.result.jobs)));

  const TelemetryDigest digest =
      TelemetryStreamDigest(timeseries, run.result.jobs);
  std::ostringstream stream;
  timeseries.WriteNdjson(stream, &digest);
  CompareOrUpdate("telemetry_fault.ndjson", stream.str());
}

// Span-stream golden: the fault-enabled config with the causal span tracer
// attached must reproduce the committed NDJSON byte for byte. This pins the
// whole attribution pipeline — enqueue/eval-fail/start hook order, blame
// refinement (fair-share cap vs fragmentation vs locality-wait), coalescing,
// requeue reasons, and checkpoint-stall spans — and doubles as a conservation
// check against the native records before comparing bytes.
TEST(GoldenDeterminismTest, SpanStreamMatchesCommittedGolden) {
  SpanTracer spans;
  ExperimentConfig config = FaultGoldenConfig();
  config.simulation.obs.spans = &spans;
  const ExperimentRun run = RunExperiment(config);

  std::string error;
  ASSERT_TRUE(
      VerifyBlameConservation(spans.log().spans(), run.result.jobs, &error))
      << error;

  std::ostringstream stream;
  spans.log().WriteNdjson(stream);
  CompareOrUpdate("spans.ndjson", stream.str());
}

// Fleet golden: a three-cluster fleet on a compressed horizon under the
// spillover router, with the threshold low enough that the stream records
// real spills. Guards the route event encoding (cluster/home/queue/free
// fields, policy detail) and the router's decision sequence — merge order,
// fluid-model state, id remapping — against accidental drift. The per-cluster
// streams need no golden of their own: the pinned differential test ties them
// to single-cluster runs, which the goldens above already pin down.
TEST(GoldenDeterminismTest, FleetRouteStreamMatchesCommittedGolden) {
  std::vector<ClusterConfig> topologies;
  std::string error;
  ASSERT_TRUE(ParseClustersSpec("1x8x8,1x8x8,1x4x4", &topologies, &error)) << error;
  FleetConfig config;
  for (size_t i = 0; i < topologies.size(); ++i) {
    config.clusters.push_back(
        {"cluster" + std::to_string(i),
         FleetClusterExperiment(topologies[i], /*days=*/1, /*base_seed=*/7,
                                static_cast<int>(i))});
  }
  config.router.policy = RouterPolicy::kSpillover;
  config.router.spill_threshold = 0;
  const FleetResult fleet = FleetSimulation(std::move(config)).Run();

  ASSERT_GT(fleet.spilled_jobs, 0)
      << "fleet golden must actually exercise spillover routing";
  std::ostringstream events;
  fleet.route_events.WriteNdjson(events);
  CompareOrUpdate("fleet_events.ndjson", events.str());
}

// Stop-path pins: one-day runs that each drive one way an attempt ends —
// time-slice and priority suspension, migration, fault kills under explicit
// checkpoint writes, and fair-share preemption with an interrupted write. A
// pin is the SHA-256 of the event stream, the span stream and the four native
// trace files (jobs.csv carries the GPU-seconds and epochs each stop books,
// gpu_util.csv the utilization segments it closes). Each case first asserts
// from the result that its path ran, so no pin can go vacuous.
struct PinnedRun {
  SimulationResult result;
  std::string sha256;
};

// Runs `jobs` as listed and pins the run. The records must come back in input
// order, each carrying its input spec unchanged.
PinnedRun RunPinned(SimulationConfig simulation, const std::vector<JobSpec>& jobs) {
  EventLog log;
  SpanTracer spans;
  simulation.obs.event_log = &log;
  simulation.obs.spans = &spans;
  PinnedRun run{ClusterSimulation(simulation, jobs).Run(), ""};
  EXPECT_EQ(run.result.jobs.size(), jobs.size());
  for (size_t i = 0; i < std::min(jobs.size(), run.result.jobs.size()); ++i) {
    EXPECT_TRUE(run.result.jobs[i].spec == jobs[i]) << "record " << i;
  }
  std::ostringstream streams[6];
  log.WriteNdjson(streams[0]);
  spans.log().WriteNdjson(streams[1]);
  TraceWriter::WriteJobs(run.result.jobs, streams[2]);
  TraceWriter::WriteAttempts(run.result.jobs, streams[3]);
  TraceWriter::WriteUtilSegments(run.result.jobs, streams[4]);
  TraceWriter::WriteStdoutLogs(run.result.jobs, streams[5]);
  Sha256 sha;
  for (const std::ostringstream& stream : streams) {
    sha.Update(stream.str());
  }
  run.sha256 = sha.FinishHex();
  return run;
}

// The generated workload of `config`, run as RunExperiment runs it.
PinnedRun RunPinned(const ExperimentConfig& config) {
  return RunPinned(config.simulation, WorkloadGenerator(config.workload).Generate());
}

ExperimentConfig StopPathConfig(SchedulerConfig scheduler) {
  ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/7);
  config.simulation.scheduler = std::move(scheduler);
  return config;
}

TEST(GoldenDeterminismTest, TimeSliceSuspensionMatchesPin) {
  const PinnedRun run = RunPinned(StopPathConfig(SchedulerConfig::Gandiva()));
  // With no faults, migration, prerun pool or priority preemption, an attempt
  // that ended neither failed nor last is a time-slice suspension.
  int suspensions = 0;
  for (const JobRecord& job : run.result.jobs) {
    for (size_t i = 0; i + 1 < job.attempts.size(); ++i) {
      suspensions += !job.attempts[i].failed;
    }
  }
  ASSERT_EQ(suspensions, 266);
  EXPECT_EQ(run.sha256,
            "6e5ae3dd6638334b0cb39b6f029617d53581fa1e57af1baf7c9ac15aea22b6d2");
}

TEST(GoldenDeterminismTest, PrioritySuspensionWithPredictiveRetryMatchesPin) {
  SchedulerConfig scheduler = SchedulerConfig::Optimus();
  scheduler.retry_policy = SchedulerConfig::RetryPolicyKind::kPredictive;
  const PinnedRun run = RunPinned(StopPathConfig(scheduler));
  ASSERT_EQ(run.result.priority_preemptions, 671);
  EXPECT_EQ(run.sha256,
            "ffa70c12fd7ac536c383bfecf6d72aaf1e0231567dfa56c8ff7ea07362a234ba");
}

TEST(GoldenDeterminismTest, PrioritySuspensionWithAdaptiveRetryMatchesPin) {
  SchedulerConfig scheduler = SchedulerConfig::Tiresias();
  scheduler.retry_policy = SchedulerConfig::RetryPolicyKind::kAdaptive;
  const PinnedRun run = RunPinned(StopPathConfig(scheduler));
  ASSERT_EQ(run.result.priority_preemptions, 124);
  EXPECT_EQ(run.sha256,
            "8d793f05d2d2a34dcfd57f1f33ec80ff3f720c9a813099509748004becd9930d");
}

TEST(GoldenDeterminismTest, FaultKillsMigrationAndPrerunMatchPin) {
  SchedulerConfig scheduler = SchedulerConfig::Philly();
  scheduler.checkpoint_period = Minutes(60);
  scheduler.checkpoint_policy = CheckpointPolicy::kDalyOptimal;
  scheduler.enable_migration = true;
  scheduler.enable_prerun_pool = true;
  ExperimentConfig config = StopPathConfig(scheduler);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.ckpt_io.rack_bandwidth_gbps = 1.0;
  const PinnedRun run = RunPinned(config);
  ASSERT_EQ(run.result.migrations, 1670);
  ASSERT_EQ(run.result.machine_fault_kills, 12);
  ASSERT_EQ(run.result.prerun_jobs, 632);
  EXPECT_EQ(run.sha256,
            "bfc2b71d0c2307fea193fc3592d0b05276a7448399f5878a55225416b7ae1a68");
}

TEST(GoldenDeterminismTest, FaultKillsAndPreemptionUnderStaggerMatchPin) {
  SchedulerConfig scheduler = SchedulerConfig::Philly();
  scheduler.checkpoint_period = Minutes(30);
  scheduler.checkpoint_policy = CheckpointPolicy::kCooperativeStagger;
  ExperimentConfig config = StopPathConfig(scheduler);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.ckpt_io.rack_bandwidth_gbps = 0.5;
  const PinnedRun run = RunPinned(config);
  ASSERT_EQ(run.result.machine_fault_kills, 20);
  ASSERT_EQ(run.result.preemptions, 1);
  ASSERT_EQ(run.result.ckpt_writes_interrupted, 1);
  EXPECT_EQ(run.sha256,
            "f062a1bb3ca40548305822eef548976fd284925f7a5c837d6eb67ecf186dd516");
}

// Lifecycle-edge pins: the same recipe over reshaped inputs, reaching what the
// stop paths do not: a job rejected as it arrives, the sparse ids a fleet
// member receives, and input out of submit order with arrivals sharing a
// second.
std::vector<JobSpec> EdgeJobs() {
  return WorkloadGenerator(StopPathConfig(SchedulerConfig::Philly()).workload).Generate();
}

TEST(GoldenDeterminismTest, JobsWiderThanTheClusterRejectedOnArrivalMatchPin) {
  const SimulationConfig simulation = StopPathConfig(SchedulerConfig::Philly()).simulation;
  const int cluster_gpus = simulation.cluster.TotalGpus();
  std::vector<JobSpec> jobs = EdgeJobs();
  int widened = 0;
  for (size_t i = 0; i < jobs.size(); i += 97) {
    jobs[i].num_gpus = cluster_gpus + 8;
    ++widened;
  }
  const PinnedRun run = RunPinned(simulation, jobs);
  int rejected = 0;
  for (const JobRecord& job : run.result.jobs) {
    rejected += job.spec.num_gpus > cluster_gpus && job.attempts.empty() &&
                job.status == JobStatus::kUnsuccessful &&
                job.finish_time == job.spec.submit_time;
  }
  ASSERT_GT(widened, 0);
  ASSERT_EQ(rejected, widened);
  EXPECT_EQ(run.sha256,
            "463e08c483ef9c4c32230f3f7f9c6eb319ecbbc55c288b8007c738474d8e8f17");
}

TEST(GoldenDeterminismTest, SparseFleetMemberJobIdsMatchPin) {
  // A spillover fleet member runs its own jobs under its id base, minus those
  // routed away, plus jobs routed in under a lower member's base.
  std::vector<JobSpec> jobs;
  for (JobSpec job : EdgeJobs()) {
    if (job.id % 7 == 3) {
      continue;  // routed away
    }
    job.id += job.id % 5 == 2 ? 1000 : 20000;
    jobs.push_back(job);
  }
  const PinnedRun run =
      RunPinned(StopPathConfig(SchedulerConfig::Philly()).simulation, jobs);
  JobId max_id = 0;
  bool ids_in_input_order = true;
  for (size_t i = 0; i < jobs.size(); ++i) {
    max_id = std::max(max_id, jobs[i].id);
    ids_in_input_order &= i == 0 || jobs[i - 1].id < jobs[i].id;
  }
  ASSERT_GT(static_cast<size_t>(max_id), 2 * jobs.size());
  ASSERT_FALSE(ids_in_input_order);
  EXPECT_EQ(run.sha256,
            "d787ed6a549a80c3d5f94f521ec782240b29688dd33f1ab3f66bfce526cb7040");
}

TEST(GoldenDeterminismTest, ArrivalsOutOfSubmitOrderAndInOneSecondMatchPin) {
  // Every three jobs share a submit second, and each run of eight is listed
  // backwards.
  std::vector<JobSpec> jobs = EdgeJobs();
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit_time = jobs[i - i % 3].submit_time;
  }
  for (size_t i = 0; i + 8 <= jobs.size(); i += 8) {
    std::reverse(jobs.begin() + static_cast<std::ptrdiff_t>(i),
                 jobs.begin() + static_cast<std::ptrdiff_t>(i + 8));
  }
  const PinnedRun run =
      RunPinned(StopPathConfig(SchedulerConfig::Philly()).simulation, jobs);
  std::map<SimTime, int> arrivals;
  for (const JobSpec& job : jobs) {
    ++arrivals[job.submit_time];
  }
  int busiest_second = 0;
  for (const auto& [second, count] : arrivals) {
    busiest_second = std::max(busiest_second, count);
  }
  ASSERT_FALSE(std::is_sorted(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.submit_time < b.submit_time;
  }));
  ASSERT_GE(busiest_second, 3);
  EXPECT_EQ(run.sha256,
            "100cce491f7073a1f89930fcd490f637edd7cbd9f9b3b2938d54025c33183263");
}

// The golden stream must also be independent of observability: re-running the
// same config without the event log attached yields identical job records
// (spot-checked via the Table 2 numbers).
TEST(GoldenDeterminismTest, SinksDoNotPerturbTheRun) {
  EventLog log;
  ExperimentConfig with_log = GoldenConfig();
  with_log.simulation.obs.event_log = &log;
  const ExperimentRun a = RunExperiment(with_log);
  const ExperimentRun b = RunExperiment(GoldenConfig());
  ASSERT_EQ(a.result.jobs.size(), b.result.jobs.size());
  EXPECT_EQ(RenderTable2(AnalyzeDelayCauses(a.result.jobs, &a.result)),
            RenderTable2(AnalyzeDelayCauses(b.result.jobs, &b.result)));
}

}  // namespace
}  // namespace philly
