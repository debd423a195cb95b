// Tests for the checkpoint I/O interference subsystem (src/fault) and its
// integration into ClusterSimulation:
//
//   * DalyOptimalPeriod: the sqrt(2 * write_cost * MTBF) optimum, clamping,
//     and degenerate inputs.
//   * CheckpointIoModel: per-rack fair-share bandwidth, nominal single-writer
//     service, stretching under contention, aborts, rack independence.
//   * FaultProcess config validation: degenerate MTBF and detection values
//     are rejected at construction (regression for the silent-clamp bug).
//   * Durable recovery end-to-end: with the I/O model on, a fault rolls a job
//     back to its last *completed* checkpoint write, with exact timelines for
//     both the clean-kill and the killed-mid-write case.
//   * Cooperative stagger: phase shifts remove contention stalls that the
//     fixed-period policy incurs, and the per-rack admission limit defers
//     the writers beyond it.
//   * Byte-identity: with the I/O model disabled, the policy knob must leave
//     every output stream byte-identical; with it enabled, streams must be
//     identical across experiment-pool thread counts (runs under
//     `ctest -L tsan` with -DPHILLY_SANITIZE=thread).
//   * GPU-time conservation (property test): for randomized fault/policy
//     configs, allocated == useful + fault-lost + ckpt-overhead + ckpt-stall
//     over all non-prerun attempts.

#include "src/fault/checkpoint_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/runner.h"
#include "src/fault/fault_process.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sched/simulation.h"

namespace philly {
namespace {

// --------------------------------------------------------- DalyOptimalPeriod

TEST(DalyOptimalPeriodTest, MatchesTheFirstOrderOptimum) {
  // delta = 50 s per write, M = 100 h: tau = sqrt(2 * 50 * 360000) = 6000 s.
  EXPECT_EQ(DalyOptimalPeriod(50.0, 3600.0 * 100), 6000);
}

TEST(DalyOptimalPeriodTest, ClampsToTheConfiguredBand) {
  // Cheap writes against a flaky machine: the raw optimum undershoots the
  // floor. sqrt(2 * 1 * 3600) = 85 s < 5 min.
  EXPECT_EQ(DalyOptimalPeriod(1.0, 3600.0), Minutes(5));
  // Expensive writes against a solid machine: the raw optimum overshoots the
  // ceiling. sqrt(2 * 10000 * 3.6e9) ~ 8.5e6 s > 48 h.
  EXPECT_EQ(DalyOptimalPeriod(10000.0, 3.6e9), Hours(48));
}

TEST(DalyOptimalPeriodTest, DegenerateInputsDisableCheckpointing) {
  EXPECT_EQ(DalyOptimalPeriod(0.0, 3600.0), 0);
  EXPECT_EQ(DalyOptimalPeriod(-1.0, 3600.0), 0);
  EXPECT_EQ(DalyOptimalPeriod(10.0, 0.0), 0);
  const double nan = std::nan("");
  EXPECT_EQ(DalyOptimalPeriod(nan, 3600.0), 0);
  EXPECT_EQ(DalyOptimalPeriod(10.0, nan), 0);
}

// --------------------------------------------------------- CheckpointIoModel

TEST(CheckpointIoModelTest, SingleWriterFinishesAtNominalTime) {
  CheckpointIoModel model(/*bandwidth_gbps=*/1.0, /*num_racks=*/2);
  EXPECT_EQ(model.Writers(0), 0);
  EXPECT_FALSE(model.NextCompletion(0, 100).has_value());

  model.BeginWrite(/*rack=*/0, /*job=*/7, /*size_gb=*/16.0, /*now=*/100);
  EXPECT_EQ(model.Writers(0), 1);
  ASSERT_TRUE(model.NextCompletion(0, 100).has_value());
  EXPECT_EQ(*model.NextCompletion(0, 100), 116);

  EXPECT_TRUE(model.CollectCompleted(0, 110).empty());
  const std::vector<JobId> done = model.CollectCompleted(0, 116);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 7);
  EXPECT_EQ(model.Writers(0), 0);
  EXPECT_FALSE(model.NextCompletion(0, 116).has_value());
}

TEST(CheckpointIoModelTest, ConcurrentWritersShareTheBandwidthFairly) {
  CheckpointIoModel model(1.0, 1);
  model.BeginWrite(0, 1, 8.0, 0);
  model.BeginWrite(0, 2, 8.0, 0);
  EXPECT_EQ(model.Writers(0), 2);
  // 8 GB each at an effective 0.5 GB/s: both complete at t=16, in start
  // order.
  EXPECT_EQ(*model.NextCompletion(0, 0), 16);
  const std::vector<JobId> done = model.CollectCompleted(0, 16);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 1);
  EXPECT_EQ(done[1], 2);
}

TEST(CheckpointIoModelTest, LateJoinerStretchesTheFirstWriter) {
  CheckpointIoModel model(1.0, 1);
  model.BeginWrite(0, 1, 16.0, 0);
  EXPECT_EQ(*model.NextCompletion(0, 0), 16);
  // At t=8 job 1 has 8 GB left; job 2 joins with 8 GB. Both drain at
  // 0.5 GB/s and finish together at t=24.
  model.BeginWrite(0, 2, 8.0, 8);
  EXPECT_EQ(*model.NextCompletion(0, 8), 24);
  EXPECT_EQ(model.CollectCompleted(0, 24).size(), 2u);
}

TEST(CheckpointIoModelTest, AbortReturnsBandwidthToTheSurvivors) {
  CheckpointIoModel model(1.0, 1);
  model.BeginWrite(0, 1, 16.0, 0);
  model.BeginWrite(0, 2, 16.0, 0);
  // At t=8 each has 12 GB left. Aborting job 1 gives job 2 the full rate:
  // done at 8 + 12 = 20.
  model.AbortWrite(0, 1, 8);
  EXPECT_EQ(model.Writers(0), 1);
  EXPECT_EQ(*model.NextCompletion(0, 8), 20);
  const std::vector<JobId> done = model.CollectCompleted(0, 20);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2);
}

TEST(CheckpointIoModelTest, RacksAreIndependent) {
  CheckpointIoModel model(1.0, 2);
  model.BeginWrite(0, 1, 8.0, 0);
  model.BeginWrite(1, 2, 8.0, 0);
  // Same-size writes on different racks do not contend.
  EXPECT_EQ(model.Writers(0), 1);
  EXPECT_EQ(model.Writers(1), 1);
  EXPECT_EQ(*model.NextCompletion(0, 0), 8);
  EXPECT_EQ(*model.NextCompletion(1, 0), 8);
}

// ------------------------------------------- FaultProcess config validation

TEST(FaultProcessValidationTest, RejectsDegenerateConfigs) {
  const auto expect_throws = [](FaultProcessConfig config) {
    EXPECT_THROW(FaultProcess(config, 8, 2), std::invalid_argument);
  };
  FaultProcessConfig config;

  config.server_crash_mtbf_hours = -1.0;
  expect_throws(config);
  config.server_crash_mtbf_hours = std::nan("");
  expect_throws(config);
  config = {};
  config.gpu_ecc_mtbf_hours = std::numeric_limits<double>::infinity();
  expect_throws(config);
  config = {};
  config.rack_outage_mtbf_hours = -0.5;
  expect_throws(config);

  config = {};
  config.detection_delay = -1;
  expect_throws(config);
}

TEST(FaultProcessValidationTest, AcceptsValidAndDisabledConfigs) {
  EXPECT_NO_THROW(FaultProcess(FaultProcessConfig{}, 8, 2));  // all disabled
  EXPECT_NO_THROW(FaultProcess(FaultProcessConfig::Calibrated(), 8, 2));
  FaultProcessConfig zero_detection = FaultProcessConfig::Calibrated();
  zero_detection.detection_delay = 0;
  EXPECT_NO_THROW(FaultProcess(zero_detection, 8, 2));
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

// One 8-GPU, 10h job with hourly explicit writes (2 GB/GPU at 1 GB/s: 16 s
// nominal). A server crash at t=6h kills the attempt at 6h10m. The exact
// cadence: write k begins at t = 3616k - 16 and completes at 3616k, making
// 3600k of training durable; six writes complete before the kill, so the job
// rolls back to 6h of durable progress and loses only the training since —
// (22200 - 96) - 21600 = 504 s at 8 GPUs.
TEST(CheckpointDurableRecoveryTest, FaultRollsBackToLastCompletedWrite) {
  SimulationConfig config = BaseConfig(1, 1, 8, SchedulerConfig::Philly());
  config.scheduler.checkpoint_period = Hours(1);
  config.ckpt_io.rack_bandwidth_gbps = 1.0;
  config.ckpt_io.size_gb_per_gpu = 2.0;
  config.fault.detection_delay = Minutes(10);
  config.fault.scripted.push_back(
      {FaultKind::kServerCrash, 0, -1, Hours(6), Minutes(30)});
  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJob(1, 0, 8, Hours(10), 10));
  ClusterSimulation sim(config, std::move(jobs));
  const SimulationResult result = sim.Run();

  const SimTime detection = Hours(6) + Minutes(10);
  const SimTime repaired = detection + Minutes(30);

  ASSERT_EQ(result.jobs.size(), 1u);
  const JobRecord& job = result.jobs[0];
  ASSERT_EQ(job.attempts.size(), 2u);
  EXPECT_EQ(job.attempts[0].end, detection);
  EXPECT_TRUE(job.attempts[0].machine_fault);

  // Attempt 1: six completed writes (3616k <= 22200 for k <= 6) at 16 s each.
  // Attempt 2: 14400 s of training remain; writes at training marks 3600,
  // 7200, 10800 (the trigger at 14400 coincides with completion and is
  // skipped), so it runs 14400 + 3*16 s.
  EXPECT_EQ(job.attempts[1].start, repaired);
  EXPECT_EQ(job.attempts[1].Duration(), 14400 + 3 * 16);
  EXPECT_EQ(job.finish_time, repaired + 14400 + 3 * 16);
  EXPECT_EQ(job.status, JobStatus::kPassed);

  EXPECT_EQ(result.ckpt_writes_started, 9);
  EXPECT_EQ(result.ckpt_writes_completed, 9);
  EXPECT_EQ(result.ckpt_writes_interrupted, 0);
  EXPECT_DOUBLE_EQ(result.machine_fault_lost_gpu_seconds, 504.0 * 8);
  EXPECT_DOUBLE_EQ(result.ckpt_overhead_gpu_seconds, 9.0 * 16 * 8);
  EXPECT_DOUBLE_EQ(result.ckpt_stall_gpu_seconds, 0.0);
  // Every useful GPU-second is exactly the planned training time.
  EXPECT_DOUBLE_EQ(result.useful_gpu_seconds, 36000.0 * 8);
  EXPECT_DOUBLE_EQ(result.GpuTimeResidual(), 0.0);
}

// The fault now lands *during* the first write (t=3600..3616, fault at
// t=3605 with zero detection delay): the write aborts, nothing is durable,
// and the whole 3600 s of training is lost. The retried attempt re-runs the
// full job with nine completed writes.
TEST(CheckpointDurableRecoveryTest, FaultMidWriteLosesTheWholeAttempt) {
  SimulationConfig config = BaseConfig(1, 1, 8, SchedulerConfig::Philly());
  config.scheduler.checkpoint_period = Hours(1);
  config.ckpt_io.rack_bandwidth_gbps = 1.0;
  config.ckpt_io.size_gb_per_gpu = 2.0;
  config.fault.detection_delay = 0;
  config.fault.scripted.push_back(
      {FaultKind::kServerCrash, 0, -1, 3605, Minutes(30)});
  std::vector<JobSpec> jobs;
  jobs.push_back(MakeJob(1, 0, 8, Hours(10), 10));
  ClusterSimulation sim(config, std::move(jobs));
  const SimulationResult result = sim.Run();

  ASSERT_EQ(result.jobs.size(), 1u);
  const JobRecord& job = result.jobs[0];
  ASSERT_EQ(job.attempts.size(), 2u);
  EXPECT_EQ(job.attempts[0].end, 3605);
  // Full restart: 36000 s of training plus nine 16 s writes (the tenth
  // trigger coincides with completion and is skipped).
  EXPECT_EQ(job.attempts[1].Duration(), 36000 + 9 * 16);
  EXPECT_EQ(job.status, JobStatus::kPassed);

  EXPECT_EQ(result.ckpt_writes_started, 10);
  EXPECT_EQ(result.ckpt_writes_completed, 9);
  EXPECT_EQ(result.ckpt_writes_interrupted, 1);
  // Lost: all 3600 s of attempt-1 training (the 5 s of aborted write time is
  // checkpoint overhead, not lost training).
  EXPECT_DOUBLE_EQ(result.machine_fault_lost_gpu_seconds, 3600.0 * 8);
  EXPECT_DOUBLE_EQ(result.ckpt_overhead_gpu_seconds, (5.0 + 9.0 * 16) * 8);
  EXPECT_DOUBLE_EQ(result.ckpt_stall_gpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.GpuTimeResidual(), 0.0);
}

// Two 4-GPU gangs on one server, 2 h jobs, hourly checkpoints (8 GB at
// 1 GB/s: 8 s nominal). Fixed-period fires both writes at t=3600: fair
// sharing stretches each to 16 s, charging 8 s of stall per gang. The
// cooperative policy phase-shifts the second gang (stagger slot) so the
// writes never overlap — same protection, zero stall.
TEST(CheckpointStaggerTest, PhaseShiftRemovesContentionStall) {
  const auto run_with_policy = [](CheckpointPolicy policy) {
    SimulationConfig config = BaseConfig(1, 1, 8, SchedulerConfig::Philly());
    config.scheduler.checkpoint_period = Hours(1);
    config.scheduler.checkpoint_policy = policy;
    config.ckpt_io.rack_bandwidth_gbps = 1.0;
    config.ckpt_io.size_gb_per_gpu = 2.0;
    std::vector<JobSpec> jobs;
    jobs.push_back(MakeJob(1, 0, 4, Hours(2), 2));
    jobs.push_back(MakeJob(2, 0, 4, Hours(2), 2));
    ClusterSimulation sim(config, std::move(jobs));
    return sim.Run();
  };

  const SimulationResult fixed = run_with_policy(CheckpointPolicy::kFixedPeriod);
  EXPECT_EQ(fixed.ckpt_writes_completed, 2);
  EXPECT_DOUBLE_EQ(fixed.ckpt_overhead_gpu_seconds, 2.0 * 8 * 4);
  EXPECT_DOUBLE_EQ(fixed.ckpt_stall_gpu_seconds, 2.0 * 8 * 4);
  EXPECT_DOUBLE_EQ(fixed.GpuTimeResidual(), 0.0);

  const SimulationResult stagger =
      run_with_policy(CheckpointPolicy::kCooperativeStagger);
  EXPECT_EQ(stagger.ckpt_writes_completed, 2);
  EXPECT_DOUBLE_EQ(stagger.ckpt_overhead_gpu_seconds, 2.0 * 8 * 4);
  EXPECT_DOUBLE_EQ(stagger.ckpt_stall_gpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stagger.GpuTimeResidual(), 0.0);

  EXPECT_LT(stagger.ckpt_overhead_gpu_seconds + stagger.ckpt_stall_gpu_seconds,
            fixed.ckpt_overhead_gpu_seconds + fixed.ckpt_stall_gpu_seconds);
}

// Seventeen 1-GPU gangs on one rack, hourly checkpoints (2 GB at 1 GB/s: 2 s
// nominal). Stagger slots go round-robin over kStaggerSlots = 8, so the 1st,
// 9th and 17th gang to start share slot 0 and ask to write together at
// t=3600, one more than kMaxWritersPerRack = 2. The first two are admitted
// and share the bandwidth (4 s each); the third is deferred (training
// continues: deferral is not a stall), admitted when they finish, and writes
// alone at nominal cost.
TEST(CheckpointStaggerTest, AdmissionLimitDefersInsteadOfStalling) {
  static_assert(kStaggerSlots == 8 && kMaxWritersPerRack == 2);
  SimulationConfig config = BaseConfig(1, 3, 8, SchedulerConfig::Philly());
  config.scheduler.checkpoint_period = Hours(1);
  config.scheduler.checkpoint_policy = CheckpointPolicy::kCooperativeStagger;
  config.ckpt_io.rack_bandwidth_gbps = 1.0;
  config.ckpt_io.size_gb_per_gpu = 2.0;
  std::vector<JobSpec> jobs;
  for (JobId id = 1; id <= 17; ++id) {
    jobs.push_back(MakeJob(id, 0, 1, Hours(2), 2));
  }
  EventLog log;
  config.obs.event_log = &log;
  ClusterSimulation sim(config, std::move(jobs));
  const SimulationResult result = sim.Run();

  // Each slot-0 gang's first write: when it began, what it cost, whether it
  // stalled.
  struct FirstWrite {
    SimTime begin = -1;
    SimDuration elapsed = -1;
    bool stalled = false;
  };
  std::map<JobId, FirstWrite> writes;
  for (const SchedEvent& e : log.events()) {
    if (e.job != 1 && e.job != 9 && e.job != 17) {
      continue;
    }
    FirstWrite& write = writes[e.job];
    if (e.kind == SchedEventKind::kCkptBegin && write.begin < 0) {
      write.begin = e.time;
    } else if (e.kind == SchedEventKind::kCkptEnd && write.elapsed < 0) {
      write.elapsed = e.delay;
    } else if (e.kind == SchedEventKind::kCkptStall && e.time == write.begin + write.elapsed) {
      write.stalled = true;
    }
  }
  ASSERT_EQ(writes.size(), 3u);
  for (const JobId id : {1, 9}) {
    SCOPED_TRACE("job " + std::to_string(id));
    EXPECT_EQ(writes[id].begin, Hours(1));
    EXPECT_EQ(writes[id].elapsed, 4);
    EXPECT_TRUE(writes[id].stalled);
  }
  EXPECT_EQ(writes[17].begin, Hours(1) + 4);
  EXPECT_EQ(writes[17].elapsed, 2);
  EXPECT_FALSE(writes[17].stalled);

  for (const JobRecord& job : result.jobs) {
    EXPECT_EQ(job.status, JobStatus::kPassed);
  }
  EXPECT_DOUBLE_EQ(result.GpuTimeResidual(), 0.0);
}

// ------------------------------------------------------------ byte identity

struct SinkBytes {
  std::string events;
  std::string telemetry;
};

ExperimentConfig DifferentialConfig(uint64_t seed, CheckpointPolicy policy,
                                    bool io_enabled) {
  ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, seed);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  // Compress MTBFs so the one-day window sees a healthy number of faults.
  config.simulation.fault.server_crash_mtbf_hours = 24.0 * 8;
  config.simulation.fault.gpu_ecc_mtbf_hours = 24.0 * 12;
  config.simulation.fault.rack_outage_mtbf_hours = 24.0 * 20;
  config.simulation.scheduler.checkpoint_period = Minutes(30);
  config.simulation.scheduler.checkpoint_policy = policy;
  if (io_enabled) {
    config.simulation.ckpt_io.rack_bandwidth_gbps = 0.5;
    config.simulation.ckpt_io.size_gb_per_gpu = 4.0;
  }
  return config;
}

SinkBytes RunForBytes(ExperimentConfig config, EventLog* log,
                      ClusterTimeSeries* timeseries) {
  config.simulation.obs.event_log = log;
  config.simulation.obs.timeseries = timeseries;
  RunExperiment(config);
  std::ostringstream events;
  std::ostringstream telemetry;
  log->WriteNdjson(events);
  timeseries->WriteNdjson(telemetry);
  return {events.str(), telemetry.str()};
}

SinkBytes RunForBytes(const ExperimentConfig& config) {
  EventLog log;
  ClusterTimeSeries timeseries(Hours(6));
  return RunForBytes(config, &log, &timeseries);
}

// With the I/O model disabled (bandwidth 0), the policy knob must be
// completely inert: every output stream byte-identical to the fixed-period
// default.
TEST(CheckpointDifferentialTest, DisabledIoModelKeepsStreamsByteIdentical) {
  const SinkBytes base =
      RunForBytes(DifferentialConfig(7, CheckpointPolicy::kFixedPeriod, false));
  ASSERT_FALSE(base.events.empty());
  EXPECT_NE(base.events.find("fault_kill"), std::string::npos)
      << "differential config must actually exercise the fault path";
  EXPECT_EQ(base.events.find("ckpt_"), std::string::npos)
      << "disabled model must emit no checkpoint events";

  for (const CheckpointPolicy policy : {CheckpointPolicy::kDalyOptimal,
                                        CheckpointPolicy::kCooperativeStagger}) {
    SCOPED_TRACE(std::string(ToString(policy)));
    const SinkBytes other = RunForBytes(DifferentialConfig(7, policy, false));
    EXPECT_EQ(other.events, base.events);
    EXPECT_EQ(other.telemetry, base.telemetry);
  }
}

// Output streams must be identical across experiment-pool thread counts, both
// with the I/O model disabled (the legacy guarantee) and enabled (the new
// subsystem joins the determinism contract). Runs under `ctest -L tsan`.
TEST(CheckpointDifferentialTest, StreamsIdenticalAcrossThreadCounts) {
  const std::vector<uint64_t> seeds = {42, 7};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (const bool io_enabled : {false, true}) {
    SCOPED_TRACE(io_enabled ? "io on" : "io off");
    std::vector<SinkBytes> expected;
    for (const uint64_t seed : seeds) {
      expected.push_back(RunForBytes(DifferentialConfig(
          seed, CheckpointPolicy::kCooperativeStagger, io_enabled)));
    }
    if (io_enabled) {
      EXPECT_NE(expected[0].events.find("ckpt_begin"), std::string::npos)
          << "enabled model must emit checkpoint events";
    }
    for (const int threads : {2, hw > 0 ? hw : 1}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::vector<EventLog> logs(seeds.size());
      std::vector<ClusterTimeSeries> series(seeds.size(),
                                            ClusterTimeSeries(Hours(6)));
      std::vector<ExperimentConfig> configs;
      for (size_t i = 0; i < seeds.size(); ++i) {
        ExperimentConfig config = DifferentialConfig(
            seeds[i], CheckpointPolicy::kCooperativeStagger, io_enabled);
        config.simulation.obs.event_log = &logs[i];
        config.simulation.obs.timeseries = &series[i];
        configs.push_back(std::move(config));
      }
      const ExperimentPool pool(threads);
      pool.RunMany(std::move(configs));
      for (size_t i = 0; i < seeds.size(); ++i) {
        SCOPED_TRACE("seed=" + std::to_string(seeds[i]));
        std::ostringstream events;
        std::ostringstream telemetry;
        logs[i].WriteNdjson(events);
        series[i].WriteNdjson(telemetry);
        EXPECT_EQ(events.str(), expected[i].events);
        EXPECT_EQ(telemetry.str(), expected[i].telemetry);
      }
    }
  }
}

// ------------------------------------------------- GPU-time conservation

// Property test: across randomized fault rates, checkpoint policies, and
// bandwidth settings, every allocated GPU-second of a non-prerun attempt is
// exactly one of useful, lost-to-fault, checkpoint overhead, or contention
// stall. Runs through the experiment pool so `ctest -L tsan` also proves the
// accounting is data-race free.
TEST(CheckpointConservationPropertyTest, AllocatedGpuTimeIsFullyAttributed) {
  std::mt19937_64 rng(0xC0DE2026ull);
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const CheckpointPolicy kPolicies[] = {CheckpointPolicy::kFixedPeriod,
                                        CheckpointPolicy::kDalyOptimal,
                                        CheckpointPolicy::kCooperativeStagger};
  std::vector<ExperimentConfig> configs;
  for (int i = 0; i < 12; ++i) {
    ExperimentConfig config =
        ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/1000 + i);
    config.simulation.fault = FaultProcessConfig::Calibrated();
    const double compression = uniform(4.0, 16.0);
    config.simulation.fault.server_crash_mtbf_hours = 24.0 * 90 / compression;
    config.simulation.fault.gpu_ecc_mtbf_hours = 24.0 * 120 / compression;
    config.simulation.fault.rack_outage_mtbf_hours = 24.0 * 180 / compression;
    config.simulation.scheduler.checkpoint_period =
        Minutes(10 + i * 10);
    config.simulation.scheduler.checkpoint_policy = kPolicies[i % 3];
    if (i % 4 != 3) {  // every fourth run keeps the legacy free-I/O model
      config.simulation.ckpt_io.rack_bandwidth_gbps = uniform(0.1, 2.0);
      config.simulation.ckpt_io.size_gb_per_gpu = uniform(0.5, 8.0);
    }
    configs.push_back(std::move(config));
  }

  const ExperimentPool pool;
  const std::vector<ExperimentRun> runs = pool.RunMany(std::move(configs));
  int64_t total_writes = 0;
  int64_t total_kills = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    const SimulationResult& r = runs[i].result;
    total_writes += r.ckpt_writes_completed;
    total_kills += r.machine_fault_kills;
    ASSERT_GT(r.allocated_gpu_seconds, 0.0);
    EXPECT_NEAR(r.GpuTimeResidual(), 0.0,
                1e-6 * r.allocated_gpu_seconds);
  }
  EXPECT_GT(total_writes, 0) << "property test must exercise the I/O model";
  EXPECT_GT(total_kills, 0) << "property test must exercise fault kills";
}

}  // namespace
}  // namespace philly
