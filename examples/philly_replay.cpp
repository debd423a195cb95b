// Full pipeline replay: generate a Philly-like trace, run it through the
// scheduler, write the philly-traces-style CSV artifact, read it back, and
// run every analysis on the round-tripped logs — exactly the three-log join
// the paper performs.
//
//   ./build/examples/philly_replay [days] [output_dir]
//
// Use days=75 for the paper-scale run (~96k jobs; takes a few minutes).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/trace/trace_io.h"

int main(int argc, char** argv) {
  using namespace philly;

  const int days = PositiveIntArg(argc, argv, 1, "days", 8);
  const std::string out_dir = argc > 2 ? argv[2] : "out/philly_trace";

  ExperimentConfig config = ExperimentConfig::BenchScale(days, 42);
  std::printf("generating and replaying %d days of arrivals...\n", days);
  const ExperimentRun run = RunExperiment(config);
  std::printf("  %lld jobs, %lld scheduling decisions, %lld preemptions\n",
              static_cast<long long>(run.num_jobs),
              static_cast<long long>(run.result.scheduling_decisions),
              static_cast<long long>(run.result.preemptions));

  std::filesystem::create_directories(out_dir);
  if (!TraceWriter::WriteDirectory(run.result.jobs, out_dir)) {
    std::fprintf(stderr, "cannot write trace to %s\n", out_dir.c_str());
    return 1;
  }
  std::printf("trace written to %s/ (jobs.csv, attempts.csv, gpu_util.csv, "
              "stdout.log)\n",
              out_dir.c_str());

  // Read the artifact back and analyze the round-tripped records — the
  // analysis sees only what the trace files contain.
  std::string error;
  const auto restored = TraceReader::ReadDirectory(out_dir, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("re-read %zu jobs from the trace artifact\n\n", restored.size());

  const auto runtimes = AnalyzeRunTimes(restored);
  std::printf("run times (Fig 2): medians by size = ");
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    std::printf("%.0f min  ", runtimes.cdf_minutes[static_cast<size_t>(b)].Median());
  }
  std::printf("| %.2f%% of jobs ran over a week\n",
              100.0 * runtimes.fraction_over_one_week);

  const auto status = AnalyzeStatus(restored);
  std::printf("status (Table 6): passed %.1f%% of jobs / %.1f%% of GPU time\n",
              100.0 * status.by_status[0].count_share,
              100.0 * status.by_status[0].gpu_time_share);

  // Export plottable CDF series for the figure panels.
  const std::string fig_dir = out_dir + "/figures";
  std::filesystem::create_directories(fig_dir);
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    WriteCdfCsv(runtimes.cdf_minutes[static_cast<size_t>(b)],
                fig_dir + "/fig2_runtime_bucket" + std::to_string(b) + ".csv");
  }
  const auto delays = AnalyzeQueueDelays(restored);
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    WriteCdfCsv(delays.overall[static_cast<size_t>(b)],
                fig_dir + "/fig3_delay_bucket" + std::to_string(b) + ".csv");
  }
  const auto util = AnalyzeUtilization(restored);
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    WriteCdfCsv(util.by_size[static_cast<size_t>(i)],
                fig_dir + "/fig5_util_" + std::to_string(kRepresentativeSizes[i]) +
                    "gpu.csv");
  }
  WriteCdfCsv(util.dedicated_8gpu, fig_dir + "/fig6_8gpu_dedicated.csv");
  WriteCdfCsv(util.dedicated_16gpu, fig_dir + "/fig6_16gpu_dedicated.csv");
  const auto host = AnalyzeHostResources(restored);
  WriteCdfCsv(host.cpu_util, fig_dir + "/fig7_cpu.csv");
  WriteCdfCsv(host.memory_util, fig_dir + "/fig7_memory.csv");
  const auto convergence = AnalyzeConvergence(restored);
  WriteCdfCsv(convergence.passed_lowest, fig_dir + "/fig8_passed_lowest.csv");
  WriteCdfCsv(convergence.passed_within, fig_dir + "/fig8_passed_within.csv");
  WriteCdfCsv(convergence.killed_lowest, fig_dir + "/fig8_killed_lowest.csv");
  WriteCdfCsv(convergence.killed_within, fig_dir + "/fig8_killed_within.csv");
  std::printf("figure CDF series exported to %s/\n", fig_dir.c_str());

  const auto failures = AnalyzeFailures(restored);
  std::printf("failures (Table 7): %lld trials classified from raw stdout logs; "
              "no-signature %.1f%%\n",
              static_cast<long long>(failures.total_trials),
              100.0 * failures.no_signature_fraction);
  std::printf("  top reasons:");
  struct Named {
    long long trials;
    std::string_view name;
  };
  std::vector<Named> top;
  for (const auto& row : failures.rows) {
    top.push_back({row.trials, ToString(row.reason)});
  }
  std::sort(top.begin(), top.end(),
            [](const Named& a, const Named& b) { return a.trials > b.trials; });
  for (int i = 0; i < 5; ++i) {
    std::printf("  %s(%lld)", std::string(top[static_cast<size_t>(i)].name).c_str(),
                top[static_cast<size_t>(i)].trials);
  }
  std::printf("\n");
  return 0;
}
