// Checkpoint scheduling policies under a contended I/O bandwidth model.
//
// Grows ablation_checkpoint_period from "how often should jobs checkpoint?"
// to "how should concurrent checkpoints share the storage they write to?".
// Every run uses the same calibrated machine-fault process and the same
// per-rack shared-bandwidth checkpoint I/O model; what varies is the
// scheduling policy: fixed-period writes (every gang on its own clock),
// Daly-optimal periods (sqrt(2 * write_cost * MTBF) per gang footprint), and
// cooperative staggering (per-rack phase shifts plus an admission limit on
// concurrent writers). The §4.3 lesson extends naturally: checkpoints bound
// the blast radius of a fault, but under finite bandwidth they have a price —
// overhead for the writes themselves and stall time when contending writers
// stretch each other — and a rack-aware policy can cut the combined waste
// without giving up fault protection.
//
//   --out FILE   also write the per-policy summary as JSON (CI artifact)

#include "bench/bench_common.h"

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/fault/checkpoint_io.h"
#include "src/fault/fault_process.h"
#include "src/sched/scheduler_config.h"

namespace {

using namespace philly;

// The contended operating point: a modest per-rack storage service and
// chunky per-GPU states, so several concurrent writers per rack are common
// and fair-share stretching is visible.
constexpr double kBandwidthGbps = 0.25;
constexpr double kSizeGbPerGpu = 4.0;
constexpr int kCheckpointMins = 30;

struct PolicyRun {
  const char* label;
  bool io_model;  // false = legacy free instantaneous checkpoints
  CheckpointPolicy policy;
};

double PassedShare(const SimulationResult& result) {
  int64_t passed = 0;
  for (const auto& job : result.jobs) {
    passed += job.status == JobStatus::kPassed;
  }
  return result.jobs.empty()
             ? 0.0
             : static_cast<double>(passed) / static_cast<double>(result.jobs.size());
}

double CombinedWasteHours(const SimulationResult& r) {
  return (r.machine_fault_lost_gpu_seconds + r.ckpt_overhead_gpu_seconds +
          r.ckpt_stall_gpu_seconds) /
         3600.0;
}

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    }
  }

  PrintHeader("checkpoint scheduling policies under I/O contention",
              "failures waste real GPU time (§4.3); with finite checkpoint "
              "bandwidth the recovery machinery itself has a price, and "
              "rack-aware cooperative scheduling cuts the combined waste");

  ShapeChecker checker;

  const PolicyRun kRuns[] = {
      {"free I/O (legacy)", false, CheckpointPolicy::kFixedPeriod},
      {"fixed-period", true, CheckpointPolicy::kFixedPeriod},
      {"daly-optimal", true, CheckpointPolicy::kDalyOptimal},
      {"cooperative-stagger", true, CheckpointPolicy::kCooperativeStagger},
  };
  std::vector<ExperimentConfig> configs;
  for (const PolicyRun& run : kRuns) {
    ExperimentConfig config = BenchConfig();
    config.simulation.fault = FaultProcessConfig::Calibrated();
    config.simulation.scheduler.checkpoint_period = Minutes(kCheckpointMins);
    config.simulation.scheduler.checkpoint_policy = run.policy;
    if (run.io_model) {
      config.simulation.ckpt_io.rack_bandwidth_gbps = kBandwidthGbps;
      config.simulation.ckpt_io.size_gb_per_gpu = kSizeGbPerGpu;
    }
    configs.push_back(std::move(config));
  }
  const ExperimentPool pool;
  const std::vector<ExperimentRun> runs = pool.RunMany(std::move(configs));

  TextTable table({"policy", "writes", "interrupted", "lost GPU-h",
                   "overhead GPU-h", "stall GPU-h", "combined GPU-h",
                   "passed %"});
  for (size_t i = 0; i < runs.size(); ++i) {
    const SimulationResult& r = runs[i].result;
    table.AddRow({kRuns[i].label, std::to_string(r.ckpt_writes_completed),
                  std::to_string(r.ckpt_writes_interrupted),
                  FormatDouble(r.machine_fault_lost_gpu_seconds / 3600.0, 1),
                  FormatDouble(r.ckpt_overhead_gpu_seconds / 3600.0, 1),
                  FormatDouble(r.ckpt_stall_gpu_seconds / 3600.0, 1),
                  FormatDouble(CombinedWasteHours(r), 1),
                  FormatPercent(PassedShare(r), 1)});
  }
  std::printf("%s\n", table.Render().c_str());

  const SimulationResult& fixed = runs[1].result;
  const SimulationResult& daly = runs[2].result;
  const SimulationResult& stagger = runs[3].result;

  checker.Check("the I/O model issues checkpoint writes",
                fixed.ckpt_writes_completed > 0,
                std::to_string(fixed.ckpt_writes_completed) + " writes");
  checker.Check("the operating point is contended (fixed-period stalls)",
                fixed.ckpt_stall_gpu_seconds > 0,
                FormatDouble(fixed.ckpt_stall_gpu_seconds / 3600.0, 1) +
                    " GPU-h stalled");
  checker.Check("faults still kill attempts with the I/O model on",
                fixed.machine_fault_kills > 0,
                std::to_string(fixed.machine_fault_kills) + " kills");
  // The tentpole claim: at equal bandwidth, cooperative staggering strictly
  // reduces the combined waste (lost + overhead + stall) vs fixed-period.
  checker.Check("cooperative stagger beats fixed-period on combined waste",
                CombinedWasteHours(stagger) < CombinedWasteHours(fixed),
                FormatDouble(CombinedWasteHours(fixed), 1) + " -> " +
                    FormatDouble(CombinedWasteHours(stagger), 1) + " GPU-h");
  checker.Check("daly periods write less often than the 30-min fixed clock",
                daly.ckpt_writes_completed < fixed.ckpt_writes_completed,
                std::to_string(fixed.ckpt_writes_completed) + " -> " +
                    std::to_string(daly.ckpt_writes_completed) + " writes");
  // GPU-time conservation: every allocated GPU-second is useful, lost to a
  // fault, checkpoint overhead, or contention stall (non-prerun attempts).
  for (size_t i = 0; i < runs.size(); ++i) {
    const SimulationResult& r = runs[i].result;
    const double tol = 1e-6 * std::max(1.0, r.allocated_gpu_seconds);
    checker.Check(std::string("GPU-time conservation holds: ") + kRuns[i].label,
                  std::abs(r.GpuTimeResidual()) <= tol,
                  FormatDouble(r.allocated_gpu_seconds, 0) + " allocated, residual " +
                      FormatDouble(r.GpuTimeResidual(), 3));
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\n  \"days\": " << BenchDays()
        << ",\n  \"seed\": " << BenchSeed()
        << ",\n  \"bandwidth_gbps\": " << JsonNumber(kBandwidthGbps)
        << ",\n  \"size_gb_per_gpu\": " << JsonNumber(kSizeGbPerGpu)
        << ",\n  \"checkpoint_mins\": " << kCheckpointMins
        << ",\n  \"policies\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      const SimulationResult& r = runs[i].result;
      out << "    {\"policy\": \""
          << (kRuns[i].io_model ? ToString(kRuns[i].policy) : "free-io")
          << "\", \"writes_completed\": " << r.ckpt_writes_completed
          << ", \"writes_interrupted\": " << r.ckpt_writes_interrupted
          << ", \"lost_gpu_hours\": "
          << JsonNumber(r.machine_fault_lost_gpu_seconds / 3600.0)
          << ", \"overhead_gpu_hours\": "
          << JsonNumber(r.ckpt_overhead_gpu_seconds / 3600.0)
          << ", \"stall_gpu_hours\": "
          << JsonNumber(r.ckpt_stall_gpu_seconds / 3600.0)
          << ", \"combined_waste_gpu_hours\": "
          << JsonNumber(CombinedWasteHours(r))
          << ", \"passed_share\": " << JsonNumber(PassedShare(r)) << "}"
          << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    if (!out.good()) {
      std::fprintf(stderr, "error while writing %s\n", out_path.c_str());
      return 1;
    }
    std::printf("summary written to %s\n", out_path.c_str());
  }
  return FinishBench(checker);
}
