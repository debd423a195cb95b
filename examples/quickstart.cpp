// Quickstart: simulate a small multi-tenant GPU cluster for two days and
// print a summary of what the analysis pipeline sees.
//
//   ./build/examples/quickstart [days] [seed]

#include <cstdio>
#include <string>

#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"

int main(int argc, char** argv) {
  using namespace philly;

  const int days = PositiveIntArg(argc, argv, 1, "days", 2);
  const uint64_t seed = U64Arg(argc, argv, 2, "seed", 42);

  // 1. Configure: paper-like cluster (two SKUs, RDMA-domain racks), 14 virtual
  //    clusters with quotas, a Philly-style locality-aware gang scheduler.
  ExperimentConfig config = ExperimentConfig::BenchScale(days, seed);
  std::printf("cluster: %d GPUs on %d servers in %zu+ racks, %zu virtual clusters\n",
              config.simulation.cluster.TotalGpus(),
              config.simulation.cluster.TotalServers(),
              config.simulation.cluster.skus.size(), config.workload.vcs.size());

  // 2. Run: generates the synthetic trace and plays it through the scheduler.
  const ExperimentRun run = RunExperiment(config);
  std::printf("simulated %lld jobs over %d days of arrivals\n\n",
              static_cast<long long>(run.num_jobs), days);

  // 3. Analyze: the same joins/aggregations the paper performs.
  const auto status = AnalyzeStatus(run.result.jobs);
  std::printf("final status mix (Table 6 shape):\n");
  for (int s = 0; s < 3; ++s) {
    const auto& row = status.by_status[static_cast<size_t>(s)];
    std::printf("  %-12s %6lld jobs (%5.1f%%)  %5.1f%% of GPU time\n",
                std::string(ToString(static_cast<JobStatus>(s))).c_str(),
                static_cast<long long>(row.count), 100.0 * row.count_share,
                100.0 * row.gpu_time_share);
  }

  const auto util = AnalyzeUtilization(run.result.jobs);
  std::printf("\nGPU utilization of in-use GPUs (Fig 5 / Table 3 shape):\n");
  std::printf("  overall mean %.1f%%; by size:", util.all.Mean());
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    std::printf("  %dGPU=%.1f%%", kRepresentativeSizes[i], util.MeanForSize(i));
  }
  std::printf("\n");

  const auto delays = AnalyzeQueueDelays(run.result.jobs);
  std::printf("\nqueueing delay p90 by job size (Fig 3 shape):\n ");
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    std::printf("  %s=%.1f min", std::string(ToString(static_cast<SizeBucket>(b))).c_str(),
                delays.overall[static_cast<size_t>(b)].Quantile(0.9));
  }
  std::printf("\n\nNext: run the binaries in build/bench/ to regenerate every "
              "table and figure of the paper.\n");
  return 0;
}
