// What-if study of the §5 design implications:
//   (a) prioritizing locality — sweep how long the scheduler insists on
//       strict locality before relaxing, trading queueing delay for
//       utilization;
//   (b) mitigating interference — place small jobs on dedicated servers
//       instead of packing them.
//
//   ./build/examples/whatif_locality [days] [seed]

#include <cstdio>

#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"

namespace {

struct Outcome {
  double mean_queue_min = 0.0;
  double mean_util_pct = 0.0;
  double mean_jct_hours = 0.0;
};

Outcome Measure(const philly::ExperimentConfig& config) {
  using namespace philly;
  const ExperimentRun run = RunExperiment(config);
  Outcome o;
  double queue_sum = 0.0;
  double jct_sum = 0.0;
  int64_t jct_n = 0;
  for (const auto& job : run.result.jobs) {
    queue_sum += ToMinutes(job.InitialQueueDelay());
    if (job.status == JobStatus::kPassed) {
      jct_sum += ToHours(job.finish_time - job.spec.submit_time);
      ++jct_n;
    }
  }
  o.mean_queue_min = queue_sum / static_cast<double>(run.result.jobs.size());
  o.mean_util_pct = AnalyzeUtilization(run.result.jobs).all.Mean();
  o.mean_jct_hours = jct_n > 0 ? jct_sum / static_cast<double>(jct_n) : 0.0;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace philly;

  const int days = PositiveIntArg(argc, argv, 1, "days", 6);
  const uint64_t seed = U64Arg(argc, argv, 2, "seed", 42);

  std::printf("(a) locality-wait sweep: minimum wait before relaxing locality\n\n");
  TextTable wait_table({"min wait before relax", "mean queue (min)",
                        "mean GPU util (%)", "mean JCT passed (h)"});
  for (const SimDuration wait : {Minutes(0), Minutes(10), Minutes(60), Hours(6)}) {
    ExperimentConfig config = ExperimentConfig::BenchScale(days, seed);
    config.simulation.scheduler.min_wait_before_relax = wait;
    const Outcome o = Measure(config);
    wait_table.AddRow({FormatDuration(wait), FormatDouble(o.mean_queue_min, 2),
                       FormatDouble(o.mean_util_pct, 1),
                       FormatDouble(o.mean_jct_hours, 2)});
  }
  std::printf("%s\n", wait_table.Render().c_str());
  std::printf("Waiting longer for locality raises utilization of the GPUs in "
              "use\nat the cost of queueing delay — the trade §5 argues "
              "schedulers should\nlean into, since DNN jobs run for hours.\n\n");

  std::printf("(b) packing vs dedicated servers for small jobs\n\n");
  TextTable pack_table({"placement policy", "mean queue (min)", "mean GPU util (%)",
                        "mean JCT passed (h)"});
  for (const bool pack : {true, false}) {
    ExperimentConfig config = ExperimentConfig::BenchScale(days, seed);
    config.simulation.scheduler.placer.pack_small_jobs = pack;
    const Outcome o = Measure(config);
    pack_table.AddRow({pack ? "pack small jobs (Philly)" : "dedicated servers",
                       FormatDouble(o.mean_queue_min, 2),
                       FormatDouble(o.mean_util_pct, 1),
                       FormatDouble(o.mean_jct_hours, 2)});
  }
  std::printf("%s\n", pack_table.Render().c_str());
  std::printf("Dedicated placement removes co-tenant interference (higher "
              "utilization)\nbut fragments the cluster, so gang placements "
              "queue for longer.\n");
  return 0;
}
