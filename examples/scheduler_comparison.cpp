// Scheduler comparison (Table 1 made quantitative): run the same workload
// under the Philly scheduler and the baselines the paper compares against —
// FIFO, Optimus-style SRTF, Tiresias-style least-attained-service, and
// Gandiva-style time-slicing — and report queueing/JCT metrics.
//
//   ./build/examples/scheduler_comparison [days] [seed]

#include <cstdio>
#include <vector>

#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"

namespace {

struct Metrics {
  double mean_queue_min = 0.0;
  double p90_queue_min = 0.0;
  double mean_jct_hours = 0.0;  // submission -> terminal state, passed jobs
  double mean_util = 0.0;
  long long preemptions = 0;
};

Metrics Evaluate(const philly::SimulationResult& result) {
  using namespace philly;
  Metrics m;
  StreamingHistogram queue(0.02, 200000.0, 400, StreamingHistogram::Scale::kLog);
  double jct_sum = 0.0;
  int64_t jct_n = 0;
  for (const auto& job : result.jobs) {
    queue.Add(ToMinutes(job.InitialQueueDelay()));
    if (job.status == JobStatus::kPassed) {
      jct_sum += ToHours(job.finish_time - job.spec.submit_time);
      ++jct_n;
    }
  }
  m.mean_queue_min = queue.Mean();
  m.p90_queue_min = queue.Quantile(0.9);
  m.mean_jct_hours = jct_n > 0 ? jct_sum / static_cast<double>(jct_n) : 0.0;
  m.mean_util = AnalyzeUtilization(result.jobs).all.Mean();
  m.preemptions = result.preemptions;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace philly;

  const int days = PositiveIntArg(argc, argv, 1, "days", 6);
  const uint64_t seed = U64Arg(argc, argv, 2, "seed", 42);

  const std::vector<SchedulerConfig> schedulers = {
      SchedulerConfig::Philly(), SchedulerConfig::Fifo(), SchedulerConfig::Optimus(),
      SchedulerConfig::Tiresias(), SchedulerConfig::Gandiva()};

  // All five simulations are independent, so they fan out across the
  // experiment pool (PHILLY_BENCH_THREADS overrides the worker count);
  // results come back in scheduler order either way.
  const ExperimentPool pool;
  std::printf("comparing %zu schedulers on an identical %d-day workload "
              "(seed %llu, %d worker threads)...\n\n",
              schedulers.size(), days, static_cast<unsigned long long>(seed),
              pool.num_threads());

  std::vector<ExperimentConfig> configs;
  for (const auto& sched : schedulers) {
    ExperimentConfig config = ExperimentConfig::BenchScale(days, seed);
    config.simulation.scheduler = sched;
    configs.push_back(std::move(config));
  }
  const std::vector<ExperimentRun> runs = pool.RunMany(std::move(configs));

  TextTable table({"scheduler", "mean queue (min)", "p90 queue (min)",
                   "mean JCT passed (h)", "mean GPU util (%)", "preemptions"});
  for (size_t i = 0; i < schedulers.size(); ++i) {
    const Metrics m = Evaluate(runs[i].result);
    table.AddRow({schedulers[i].name, FormatDouble(m.mean_queue_min, 2),
                  FormatDouble(m.p90_queue_min, 2), FormatDouble(m.mean_jct_hours, 2),
                  FormatDouble(m.mean_util, 1), std::to_string(m.preemptions)});
    std::printf("  %s done (%lld jobs)\n", schedulers[i].name.c_str(),
                static_cast<long long>(runs[i].num_jobs));
  }
  std::printf("\n%s\n", table.Render().c_str());
  std::printf("Reading the table: SRTF/LAS orderings favour short jobs (lower "
              "mean JCT);\nthe Philly policy favours locality and fairness; "
              "time-slicing trades\nthroughput for lower queueing.\n");
  return 0;
}
