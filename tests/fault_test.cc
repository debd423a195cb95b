// Tests for the machine-level fault subsystem (src/fault) and its
// integration into ClusterSimulation:
//
//   * FaultProcess: per-(seed, server) deterministic renewal streams,
//     independent of query interleaving; disabled configs emit nothing.
//   * Server health in ClusterSimulation: a fault on a server that is
//     already faulted (pending detection or offline) changes nothing, and a
//     repaired server takes placements again.
//   * Rack outage end-to-end: every gang on the failed rack is killed after
//     exactly the configured detection delay, the rack drains for the repair
//     window, and the jobs recover afterwards.
//   * Checkpoint-aware recovery: a faulted job resumes from its last periodic
//     checkpoint; without checkpointing it restarts from zero and both the
//     lost GPU-time and the finish time grow accordingly.
//   * The fault-requeue budget: a gang that machine faults kill
//     kMaxFaultKills times ends Unsuccessful instead of requeueing again.
//   * Determinism: with faults enabled, SimulationResult is byte-identical
//     across repeated serial runs and across experiment-pool thread counts
//     (this test carries the `tsan` ctest label alongside runner_test).

#include "src/fault/fault_process.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/core/runner.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sched/simulation.h"

namespace philly {
namespace {

// ------------------------------------------------------------- FaultProcess

TEST(FaultProcessTest, DisabledConfigEmitsNothing) {
  FaultProcessConfig config;  // all MTBFs zero, no scripted events
  EXPECT_FALSE(config.Enabled());
  FaultProcess process(config, /*num_servers=*/8, /*num_racks=*/2);
  EXPECT_FALSE(process.enabled());
  EXPECT_FALSE(process.NextServerFault(0, 0).has_value());
  EXPECT_FALSE(process.NextRackFault(0, 0).has_value());
}

TEST(FaultProcessTest, ScriptedEventsAloneEnableTheProcess) {
  FaultProcessConfig config;
  config.scripted.push_back({FaultKind::kServerCrash, 3, -1, Hours(1), Hours(2)});
  EXPECT_TRUE(config.Enabled());
}

TEST(FaultProcessTest, ServerStreamsAreDeterministicAndInterleavingFree) {
  FaultProcessConfig config;
  config.server_crash_mtbf_hours = 24.0 * 30;
  config.gpu_ecc_mtbf_hours = 24.0 * 45;
  FaultProcess a(config, 16, 2);
  FaultProcess b(config, 16, 2);

  // Query `a` in server order and `b` in reverse: per-server streams must not
  // depend on what other servers were asked in between.
  std::vector<FaultEvent> forward;
  for (ServerId s = 0; s < 16; ++s) {
    forward.push_back(*a.NextServerFault(s, 0));
  }
  for (ServerId s = 15; s >= 0; --s) {
    const FaultEvent event = *b.NextServerFault(s, 0);
    EXPECT_EQ(event.at, forward[static_cast<size_t>(s)].at) << "server " << s;
    EXPECT_EQ(event.kind, forward[static_cast<size_t>(s)].kind);
    EXPECT_EQ(event.repair, forward[static_cast<size_t>(s)].repair);
    EXPECT_EQ(event.server, s);
    EXPECT_EQ(event.rack, -1);
  }
  // Renewal: the next event strictly follows the `after` bound.
  for (const FaultEvent& event : forward) {
    EXPECT_GT(event.at, 0);
    EXPECT_GE(event.repair, 1);
    const FaultEvent next = *a.NextServerFault(event.server, event.at);
    EXPECT_GT(next.at, event.at);
  }
}

TEST(FaultProcessTest, SingleFaultClassKeepsItsKind) {
  FaultProcessConfig crash_only;
  crash_only.server_crash_mtbf_hours = 24.0 * 30;
  FaultProcess crash(crash_only, 4, 1);
  for (ServerId s = 0; s < 4; ++s) {
    EXPECT_EQ(crash.NextServerFault(s, 0)->kind, FaultKind::kServerCrash);
  }
  FaultProcessConfig ecc_only;
  ecc_only.gpu_ecc_mtbf_hours = 24.0 * 30;
  FaultProcess ecc(ecc_only, 4, 1);
  for (ServerId s = 0; s < 4; ++s) {
    EXPECT_EQ(ecc.NextServerFault(s, 0)->kind, FaultKind::kGpuEccDegraded);
  }
}

TEST(FaultProcessTest, RackStreamEmitsSwitchOutages) {
  FaultProcessConfig config;
  config.rack_outage_mtbf_hours = 24.0 * 20;
  FaultProcess process(config, 8, 4);
  EXPECT_FALSE(process.NextServerFault(0, 0).has_value());
  for (RackId r = 0; r < 4; ++r) {
    const FaultEvent event = *process.NextRackFault(r, 0);
    EXPECT_EQ(event.kind, FaultKind::kSwitchOutage);
    EXPECT_EQ(event.rack, r);
    EXPECT_EQ(event.server, -1);
    EXPECT_GT(event.at, 0);
  }
}

// ------------------------------------------------------ simulation scenarios

JobSpec MakeJob(JobId id, SimTime submit, int gpus, SimDuration planned,
                int epochs) {
  JobSpec spec;
  spec.id = id;
  spec.vc = 0;
  spec.user = static_cast<UserId>(id);
  spec.submit_time = submit;
  spec.num_gpus = gpus;
  spec.planned_duration = planned;
  spec.planned_epochs = epochs;
  return spec;
}

SimulationConfig BaseConfig(int racks, int servers_per_rack, int gpus_per_server,
                            SchedulerConfig sched) {
  SimulationConfig config;
  config.cluster = ClusterConfig{};
  config.cluster.skus.push_back({racks, servers_per_rack, gpus_per_server});
  config.scheduler = std::move(sched);
  config.failure.failure_scale = 0.0;  // machine faults are the only failures
  config.vcs.push_back(
      {"vc0", racks * servers_per_rack * gpus_per_server, 1.0, 1.0, true});
  config.seed = 1;
  return config;
}

// A rack switch outage at t=1h on a single-rack cluster running four 8-GPU
// gangs. Every gang must die at exactly t=1h + detection_delay, the whole
// rack must drain for the repair window, and all jobs must restart after the
// repair and pass.
TEST(MachineFaultSimulationTest, RackOutageKillsEveryGangAfterDetectionDelay) {
  SimulationConfig config = BaseConfig(1, 4, 8, SchedulerConfig::Philly());
  config.fault.detection_delay = Minutes(7);
  config.fault.scripted.push_back(
      {FaultKind::kSwitchOutage, -1, 0, Hours(1), Hours(2)});

  std::vector<JobSpec> jobs;
  for (JobId id = 1; id <= 4; ++id) {
    jobs.push_back(MakeJob(id, 0, 8, Hours(10), 10));
  }
  ClusterTimeSeries telemetry;
  config.obs.timeseries = &telemetry;
  ClusterSimulation sim(config, std::move(jobs));
  const SimulationResult result = sim.Run();

  EXPECT_EQ(result.machine_faults_injected, 1);
  EXPECT_EQ(result.machine_fault_server_downs, 4);
  EXPECT_EQ(result.machine_fault_kills, 4);

  const SimTime detection = Hours(1) + Minutes(7);
  const SimTime repaired = detection + Hours(2);
  for (const JobRecord& job : result.jobs) {
    ASSERT_EQ(job.attempts.size(), 2u) << "job " << job.spec.id;
    const AttemptRecord& killed = job.attempts[0];
    EXPECT_EQ(killed.start, 0);
    EXPECT_EQ(killed.end, detection);
    EXPECT_TRUE(killed.failed);
    EXPECT_TRUE(killed.machine_fault);
    EXPECT_FALSE(killed.preempted);
    EXPECT_EQ(killed.true_reason, FailureReason::kRackSwitchOutage);
    EXPECT_FALSE(killed.log_tail.empty());
    // No capacity exists until the rack is repaired; no checkpointing means a
    // full 10h restart.
    const AttemptRecord& retry = job.attempts[1];
    EXPECT_EQ(retry.start, repaired);
    EXPECT_EQ(retry.Duration(), Hours(10));
    EXPECT_FALSE(retry.machine_fault);
    EXPECT_EQ(job.status, JobStatus::kPassed);
  }

  // Lost GPU-time: per gang, 1h of discarded clean progress plus the 7-minute
  // undetected dead window, at 8 GPUs.
  const double per_gang = static_cast<double>(Hours(1) + Minutes(7)) * 8.0;
  EXPECT_DOUBLE_EQ(result.machine_fault_lost_gpu_seconds, 4.0 * per_gang);

  // The 2h telemetry sample lands inside the outage: the whole rack reads
  // offline, with no server empty, after all four kills.
  const std::vector<TelemetrySample>& samples = telemetry.samples();
  const auto sample = std::find_if(samples.begin(), samples.end(),
                                   [](const TelemetrySample& s) { return s.time == Hours(2); });
  ASSERT_NE(sample, samples.end());
  EXPECT_EQ(sample->offline_servers, 4);
  EXPECT_EQ(sample->empty_servers, 0);
  EXPECT_EQ(sample->racks_with_empty, 0);
  EXPECT_EQ(sample->fault_kills, 4);
  EXPECT_GT(sample->lost_gpu_seconds, 0.0);
}

// Faults landing on servers that are already faulted: a crash on server 1, a
// switch outage over its rack while that crash is still undetected, and a
// second crash on server 1 while it is offline. Only the first two count,
// the outage takes down only the three healthy servers, and server 1 takes a
// placement again once its repair completes.
TEST(MachineFaultSimulationTest, FaultsOnFaultedServersChangeNothing) {
  SimulationConfig config = BaseConfig(1, 4, 8, SchedulerConfig::Philly());
  config.fault.detection_delay = Minutes(10);
  config.fault.scripted = {
      {FaultKind::kServerCrash, 1, -1, Hours(1), Hours(2)},
      {FaultKind::kSwitchOutage, -1, 0, Hours(1) + Minutes(5), Hours(1)},
      {FaultKind::kServerCrash, 1, -1, Hours(2), Hours(1)},
  };
  std::vector<JobSpec> jobs;
  for (JobId id = 1; id <= 4; ++id) {
    jobs.push_back(MakeJob(id, 0, 8, Hours(10), 10));
  }
  const SimulationResult result = ClusterSimulation(config, std::move(jobs)).Run();

  EXPECT_EQ(result.machine_faults_injected, 2);
  EXPECT_EQ(result.machine_fault_server_downs, 4);
  EXPECT_EQ(result.machine_fault_kills, 4);

  const SimTime crash_detected = Hours(1) + Minutes(10);
  const SimTime outage_detected = Hours(1) + Minutes(15);
  const SimTime outage_repaired = outage_detected + Hours(1);
  const SimTime crash_repaired = crash_detected + Hours(2);
  int restarted_on_server1 = 0;
  for (const JobRecord& job : result.jobs) {
    ASSERT_EQ(job.attempts.size(), 2u) << "job " << job.spec.id;
    const AttemptRecord& killed = job.attempts[0];
    const AttemptRecord& retry = job.attempts[1];
    ASSERT_EQ(killed.placement.NumServers(), 1);
    ASSERT_EQ(retry.placement.NumServers(), 1);
    EXPECT_TRUE(killed.machine_fault);
    if (killed.placement.shards[0].server == 1) {
      EXPECT_EQ(killed.end, crash_detected);
      EXPECT_EQ(killed.true_reason, FailureReason::kNodeCrash);
    } else {
      EXPECT_EQ(killed.end, outage_detected);
      EXPECT_EQ(killed.true_reason, FailureReason::kRackSwitchOutage);
    }
    if (retry.placement.shards[0].server == 1) {
      ++restarted_on_server1;
      EXPECT_EQ(retry.start, crash_repaired);
    } else {
      EXPECT_EQ(retry.start, outage_repaired);
    }
    EXPECT_FALSE(retry.machine_fault);
    EXPECT_EQ(job.status, JobStatus::kPassed);
  }
  EXPECT_EQ(restarted_on_server1, 1);
}

// Checkpoint-aware recovery: a server crash 6h into a 10h job. With hourly
// checkpoints the job resumes from the 6h mark and only the detection window
// is lost; with no checkpointing it restarts from zero.
TEST(MachineFaultSimulationTest, CheckpointPeriodBoundsTheLoss) {
  const auto run_with_period = [](SimDuration period) {
    SimulationConfig config = BaseConfig(1, 1, 8, SchedulerConfig::Philly());
    config.scheduler.checkpoint_period = period;
    config.fault.detection_delay = Minutes(10);
    config.fault.scripted.push_back(
        {FaultKind::kServerCrash, 0, -1, Hours(6), Minutes(30)});
    std::vector<JobSpec> jobs;
    jobs.push_back(MakeJob(1, 0, 8, Hours(10), 10));
    ClusterSimulation sim(config, std::move(jobs));
    return sim.Run();
  };

  const SimulationResult ckpt = run_with_period(Hours(1));
  const SimulationResult restart = run_with_period(kNoCheckpoint);

  const SimTime detection = Hours(6) + Minutes(10);
  const SimTime repaired = detection + Minutes(30);

  ASSERT_EQ(ckpt.jobs.size(), 1u);
  const JobRecord& resumed = ckpt.jobs[0];
  ASSERT_EQ(resumed.attempts.size(), 2u);
  EXPECT_EQ(resumed.attempts[0].end, detection);
  EXPECT_EQ(resumed.attempts[0].true_reason, FailureReason::kNodeCrash);
  EXPECT_TRUE(resumed.attempts[0].machine_fault);
  // 6h of progress survived (the fault hit exactly on a checkpoint boundary);
  // only 4h remain.
  EXPECT_EQ(resumed.attempts[1].start, repaired);
  EXPECT_EQ(resumed.attempts[1].Duration(), Hours(4));
  EXPECT_EQ(resumed.finish_time, repaired + Hours(4));
  EXPECT_EQ(resumed.status, JobStatus::kPassed);
  // Only the undetected dead window is lost: 10 min x 8 GPUs.
  EXPECT_DOUBLE_EQ(ckpt.machine_fault_lost_gpu_seconds,
                   static_cast<double>(Minutes(10)) * 8.0);

  ASSERT_EQ(restart.jobs.size(), 1u);
  const JobRecord& scratch = restart.jobs[0];
  ASSERT_EQ(scratch.attempts.size(), 2u);
  EXPECT_EQ(scratch.attempts[1].start, repaired);
  EXPECT_EQ(scratch.attempts[1].Duration(), Hours(10));
  EXPECT_EQ(scratch.finish_time, repaired + Hours(10));
  EXPECT_EQ(scratch.status, JobStatus::kPassed);
  // The 6h of clean progress is lost on top of the dead window.
  EXPECT_DOUBLE_EQ(restart.machine_fault_lost_gpu_seconds,
                   static_cast<double>(Hours(6) + Minutes(10)) * 8.0);

  EXPECT_LT(ckpt.machine_fault_lost_gpu_seconds,
            restart.machine_fault_lost_gpu_seconds);
  EXPECT_LT(resumed.finish_time, scratch.finish_time);
}

// A server crash every two hours under a 100-hour gang with no checkpoints:
// each kill requeues the job until the kMaxFaultKills-th, which ends it
// Unsuccessful at that detection. The crash after it finds no job to kill.
TEST(MachineFaultSimulationTest, FaultRequeueBudgetEndsTheJob) {
  SimulationConfig config = BaseConfig(1, 1, 8, SchedulerConfig::Philly());
  config.fault.detection_delay = Minutes(10);
  for (int k = 0; k <= kMaxFaultKills; ++k) {
    config.fault.scripted.push_back(
        {FaultKind::kServerCrash, 0, -1, Hours(1 + 2 * k), Minutes(30)});
  }
  EventLog log;
  config.obs.event_log = &log;
  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJob(1, 0, 8, Hours(100), 100));
  const SimulationResult result = ClusterSimulation(config, std::move(jobs)).Run();

  EXPECT_EQ(result.machine_fault_kills, kMaxFaultKills);
  ASSERT_EQ(result.jobs.size(), 1u);
  const JobRecord& job = result.jobs[0];
  EXPECT_EQ(job.status, JobStatus::kUnsuccessful);
  const SimTime last_detection = Hours(1 + 2 * (kMaxFaultKills - 1)) + Minutes(10);
  EXPECT_EQ(job.finish_time, last_detection);
  ASSERT_EQ(job.attempts.size(), static_cast<size_t>(kMaxFaultKills));
  for (const AttemptRecord& attempt : job.attempts) {
    EXPECT_TRUE(attempt.failed);
    EXPECT_TRUE(attempt.machine_fault);
    EXPECT_EQ(attempt.true_reason, FailureReason::kNodeCrash);
    EXPECT_FALSE(attempt.log_tail.empty());
  }
  EXPECT_EQ(job.attempts.back().end, last_detection);

  // The job's last event completes it, naming the killed attempt.
  const SchedEvent* last = nullptr;
  int requeues = 0;
  for (const SchedEvent& e : log.events()) {
    if (e.job == 1) {
      last = &e;
      requeues += e.kind == SchedEventKind::kRequeue;
    }
  }
  EXPECT_EQ(requeues, kMaxFaultKills - 1);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->kind, SchedEventKind::kComplete);
  EXPECT_EQ(last->time, last_detection);
  EXPECT_EQ(last->status, static_cast<int>(JobStatus::kUnsuccessful));
  EXPECT_EQ(last->attempt, kMaxFaultKills - 1);
  EXPECT_TRUE(last->machine_fault);
}

// With the fault process disabled, every fault-related counter must stay
// zero and no attempt may carry the machine_fault flag — the baseline for
// the byte-identity guarantee.
TEST(MachineFaultSimulationTest, DisabledFaultsLeaveNoTrace) {
  ExperimentConfig config = ExperimentConfig::BenchScale(1);
  ClusterTimeSeries telemetry;
  config.simulation.obs.timeseries = &telemetry;
  const ExperimentRun run = RunExperiment(config);
  EXPECT_EQ(run.result.machine_faults_injected, 0);
  EXPECT_EQ(run.result.machine_fault_server_downs, 0);
  EXPECT_EQ(run.result.machine_fault_kills, 0);
  EXPECT_EQ(run.result.machine_fault_lost_gpu_seconds, 0.0);
  for (const JobRecord& job : run.result.jobs) {
    for (const AttemptRecord& attempt : job.attempts) {
      EXPECT_FALSE(attempt.machine_fault);
    }
  }
  ASSERT_FALSE(telemetry.samples().empty());
  for (const TelemetrySample& sample : telemetry.samples()) {
    EXPECT_EQ(sample.offline_servers, 0);
    EXPECT_EQ(sample.fault_kills, 0);
    EXPECT_EQ(sample.lost_gpu_seconds, 0.0);
  }
}

// ------------------------------------------------------------- determinism

void ExpectJobRecordsEqual(const JobRecord& a, const JobRecord& b) {
  EXPECT_EQ(a.spec.id, b.spec.id);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.executed_epochs, b.executed_epochs);
  EXPECT_EQ(a.GpuSeconds(), b.GpuSeconds());
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    const AttemptRecord& x = a.attempts[i];
    const AttemptRecord& y = b.attempts[i];
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.end, y.end);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.preempted, y.preempted);
    EXPECT_EQ(x.machine_fault, y.machine_fault);
    EXPECT_EQ(x.true_reason, y.true_reason);
    EXPECT_EQ(x.log_tail, y.log_tail);
    ASSERT_EQ(x.placement.shards.size(), y.placement.shards.size());
    for (size_t s = 0; s < x.placement.shards.size(); ++s) {
      EXPECT_EQ(x.placement.shards[s].server, y.placement.shards[s].server);
      EXPECT_EQ(x.placement.shards[s].gpus, y.placement.shards[s].gpus);
    }
  }
  ASSERT_EQ(a.util_segments.size(), b.util_segments.size());
  for (size_t i = 0; i < a.util_segments.size(); ++i) {
    EXPECT_EQ(a.util_segments[i].expected_util, b.util_segments[i].expected_util);
    EXPECT_EQ(a.util_segments[i].duration, b.util_segments[i].duration);
  }
}

void ExpectRunsEqual(const ExperimentRun& a, const ExperimentRun& b) {
  EXPECT_EQ(a.num_jobs, b.num_jobs);
  EXPECT_EQ(a.result.preemptions, b.result.preemptions);
  EXPECT_EQ(a.result.machine_faults_injected, b.result.machine_faults_injected);
  EXPECT_EQ(a.result.machine_fault_server_downs, b.result.machine_fault_server_downs);
  EXPECT_EQ(a.result.machine_fault_kills, b.result.machine_fault_kills);
  EXPECT_EQ(a.result.machine_fault_lost_gpu_seconds,
            b.result.machine_fault_lost_gpu_seconds);
  ASSERT_EQ(a.result.occupancy_snapshots.size(), b.result.occupancy_snapshots.size());
  for (size_t i = 0; i < a.result.occupancy_snapshots.size(); ++i) {
    const auto& x = a.result.occupancy_snapshots[i];
    const auto& y = b.result.occupancy_snapshots[i];
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.occupancy, y.occupancy);
    EXPECT_EQ(x.empty_server_fraction, y.empty_server_fraction);
    EXPECT_EQ(x.racks_with_empty_servers, y.racks_with_empty_servers);
  }
  ASSERT_EQ(a.result.jobs.size(), b.result.jobs.size());
  for (size_t i = 0; i < a.result.jobs.size(); ++i) {
    ExpectJobRecordsEqual(a.result.jobs[i], b.result.jobs[i]);
  }
}

// With faults enabled, results must be byte-identical across repeated serial
// runs and across experiment-pool thread counts. Runs under `ctest -L tsan`
// with -DPHILLY_SANITIZE=thread to prove the fault path is data-race free.
TEST(FaultDeterminismTest, FaultyRunsIdenticalAcrossThreadsAndRepeats) {
  ExperimentConfig base = ExperimentConfig::BenchScale(1);
  base.simulation.fault = FaultProcessConfig::Calibrated();
  // Compress MTBFs so a one-day window sees a healthy number of faults.
  base.simulation.fault.server_crash_mtbf_hours = 24.0 * 8;
  base.simulation.fault.gpu_ecc_mtbf_hours = 24.0 * 12;
  base.simulation.fault.rack_outage_mtbf_hours = 24.0 * 20;
  const std::vector<uint64_t> seeds = {42, 7};

  std::vector<ExperimentRun> expected;
  for (const ExperimentConfig& config : ConfigsForSeeds(base, seeds)) {
    expected.push_back(RunExperiment(config));
  }
  int64_t total_faults = 0;
  int64_t total_kills = 0;
  for (const ExperimentRun& run : expected) {
    total_faults += run.result.machine_faults_injected;
    total_kills += run.result.machine_fault_kills;
  }
  EXPECT_GT(total_faults, 0) << "test must actually exercise the fault path";
  EXPECT_GT(total_kills, 0);

  // Repeatability: a second serial pass is identical.
  {
    size_t i = 0;
    for (const ExperimentConfig& config : ConfigsForSeeds(base, seeds)) {
      SCOPED_TRACE("repeat seed=" + std::to_string(seeds[i]));
      ExpectRunsEqual(RunExperiment(config), expected[i++]);
    }
  }

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const int threads : {1, 2, hw > 0 ? hw : 1}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ExperimentPool pool(threads);
    const std::vector<ExperimentRun> runs = pool.RunSeeds(base, seeds);
    ASSERT_EQ(runs.size(), expected.size());
    for (size_t i = 0; i < runs.size(); ++i) {
      SCOPED_TRACE("seed=" + std::to_string(seeds[i]));
      ExpectRunsEqual(runs[i], expected[i]);
    }
  }
}

}  // namespace
}  // namespace philly
