// The fixed configurations behind the committed goldens (tests/golden/),
// shared by the golden test and the streamed-sink differential test, so both
// pin the same runs.

#ifndef TESTS_GOLDEN_CONFIGS_H_
#define TESTS_GOLDEN_CONFIGS_H_

#include <string>

#include "src/core/experiment.h"
#include "src/fault/fault_process.h"

namespace philly {

#ifndef PHILLY_TESTS_DIR
#error "PHILLY_TESTS_DIR must point at the tests/ source directory"
#endif

inline std::string GoldenPath(const std::string& name) {
  return std::string(PHILLY_TESTS_DIR) + "/golden/" + name;
}

// Small fixed workload: one day of arrivals at a fifth of the paper's rates
// against a quarter-size cluster with a warm-start cohort near its capacity,
// so the stream exercises queueing, fair-share vs fragmentation delays, and
// locality relaxation but stays around a thousand events.
inline ExperimentConfig GoldenConfig() {
  ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/7);
  for (VcConfig& vc : config.workload.vcs) {
    vc.arrival_rate_per_hour *= 0.3;
  }
  config.simulation.cluster.skus.clear();
  config.simulation.cluster.skus.push_back(
      {/*racks=*/4, /*servers_per_rack=*/16, /*gpus_per_server=*/8});
  config.simulation.cluster.skus.push_back(
      {/*racks=*/1, /*servers_per_rack=*/24, /*gpus_per_server=*/2});
  config.workload.prepopulate_busy_gpus = 536;
  return config;
}

// Fault-enabled golden: the same fixed workload with the calibrated machine
// fault process (MTBFs compressed so the one-day window sees real kills) and
// the checkpoint I/O model on under the cooperative-stagger policy. Guards
// the fault timeline, the checkpoint write/stall cadence, and the new
// ckpt_begin/ckpt_end/ckpt_stall event kinds plus the telemetry checkpoint
// fields against accidental drift.
inline ExperimentConfig FaultGoldenConfig() {
  ExperimentConfig config = GoldenConfig();
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.fault.server_crash_mtbf_hours = 24.0 * 8;
  config.simulation.fault.gpu_ecc_mtbf_hours = 24.0 * 12;
  config.simulation.fault.rack_outage_mtbf_hours = 24.0 * 20;
  config.simulation.scheduler.checkpoint_period = Minutes(30);
  config.simulation.scheduler.checkpoint_policy =
      CheckpointPolicy::kCooperativeStagger;
  config.simulation.ckpt_io.rack_bandwidth_gbps = 0.5;
  config.simulation.ckpt_io.size_gb_per_gpu = 4.0;
  return config;
}

}  // namespace philly

#endif  // TESTS_GOLDEN_CONFIGS_H_
