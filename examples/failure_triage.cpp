// Failure triage demo: feed raw job stdout/stderr tails through the signature
// classifier (the §4.2.1 pipeline), print the resulting taxonomy, and show
// what the §5 adaptive retry policy would have saved.
//
//   ./build/examples/failure_triage [days] [seed]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"

int main(int argc, char** argv) {
  using namespace philly;

  const int days = PositiveIntArg(argc, argv, 1, "days", 5);
  const uint64_t seed = U64Arg(argc, argv, 2, "seed", 7);

  ExperimentConfig config = ExperimentConfig::BenchScale(days, seed);
  const ExperimentRun run = RunExperiment(config);

  // Show a couple of raw log tails and their classification.
  FailureClassifier classifier;
  std::printf("sample classifications from raw log text:\n");
  int shown = 0;
  for (const auto& job : run.result.jobs) {
    for (const auto& attempt : job.attempts) {
      if (!attempt.failed || shown >= 3) {
        continue;
      }
      ++shown;
      std::printf("--- job %lld attempt %d ---\n",
                  static_cast<long long>(job.spec.id), attempt.index);
      for (const auto& line : attempt.log_tail) {
        std::printf("  | %s\n", line.c_str());
      }
      std::printf("  => classified: %s\n",
                  std::string(ToString(classifier.Classify(attempt.log_tail))).c_str());
    }
  }

  const auto failures = AnalyzeFailures(run.result.jobs);
  std::printf("\nfailure taxonomy over %lld trials (%zu signature rules, "
              "no-signature %.1f%%):\n\n",
              static_cast<long long>(failures.total_trials), classifier.NumRules(),
              100.0 * failures.no_signature_fraction);

  TextTable table({"reason", "trials", "jobs", "users", "RTF p50 (min)",
                   "RTF p90 (min)", "RTF share"});
  std::vector<const FailureAnalysisResult::ReasonRow*> rows;
  for (const auto& row : failures.rows) {
    if (row.trials > 0) {
      rows.push_back(&row);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->trials > b->trials; });
  for (const auto* row : rows) {
    table.AddRow({std::string(ToString(row->reason)), std::to_string(row->trials),
                  std::to_string(row->jobs), std::to_string(row->users),
                  FormatDouble(row->rtf_p50_min, 2), FormatDouble(row->rtf_p90_min, 2),
                  FormatPercent(row->rtf_total_share, 1)});
  }
  std::printf("%s\n", table.Render().c_str());

  // Quantify the adaptive-retry design implication.
  ExperimentConfig adaptive = config;
  adaptive.simulation.scheduler.retry_policy = SchedulerConfig::RetryPolicyKind::kAdaptive;
  const ExperimentRun adaptive_run = RunExperiment(adaptive);
  const auto wasted = [](const SimulationResult& result) {
    double gpu_seconds = 0.0;
    for (const auto& job : result.jobs) {
      for (const auto& attempt : job.attempts) {
        if (attempt.failed) {
          gpu_seconds += attempt.GpuTime();
        }
      }
    }
    return gpu_seconds / 3600.0;
  };
  const double fixed_waste = wasted(run.result);
  const double adaptive_waste = wasted(adaptive_run.result);
  std::printf("GPU-hours consumed by failing attempts:\n");
  std::printf("  fixed retry policy    %10.0f GPU-h\n", fixed_waste);
  std::printf("  adaptive retry policy %10.0f GPU-h  (%.1f%% saved by stopping "
              "deterministic user errors early)\n",
              adaptive_waste, 100.0 * (1.0 - adaptive_waste / fixed_waste));
  return 0;
}
