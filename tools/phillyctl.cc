// phillyctl — command-line front end for the phillysim library. Run it with
// no arguments for every command's purpose and options; one table declares,
// checks and records them (src/core/cli_options.h).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/analysis.h"
#include "src/core/cli_options.h"
#include "src/core/event_join.h"
#include "src/core/experiment.h"
#include "src/core/html_report.h"
#include "src/core/report.h"
#include "src/core/run_outputs.h"
#include "src/core/runner.h"
#include "src/core/span_analysis.h"
#include "src/core/validate.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_outputs.h"
#include "src/obs/event_log.h"
#include "src/obs/manifest.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/trace/philly_format.h"
#include "src/trace/trace_io.h"

namespace philly {
namespace {

// Creates the --figures directory, when the flag is given, before any
// simulation or trace read. Returns false, naming the path, if it cannot.
bool CreateFiguresDir(const Args& args) {
  if (!args.Has("--figures")) {
    return true;
  }
  const std::string& dir = args.Text("--figures");
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create figures directory %s: %s\n", dir.c_str(),
                 error.message().c_str());
    return false;
  }
  return true;
}

int RunSimulateOrReport(const Args& args) {
  // Sizes the post-run pipeline; reads PHILLY_BENCH_THREADS, and rejects it
  // when malformed, before any output exists.
  const ExperimentPool pool;
  const bool write_output = args.command() == "simulate";
  const int days = static_cast<int>(args.Int("--days"));
  ExperimentConfig config =
      ExperimentConfig::BenchScale(days, static_cast<uint64_t>(args.Int("--seed")));
  ApplySchedulerOptions(args, args.Text("--scheduler"), args.Text("--retry"), &config.simulation);
  if (!CreateFiguresDir(args)) {
    return 1;
  }

  const std::string out_dir = write_output ? args.Text("--out") : "";
  const std::string format = write_output ? args.Text("--format") : "";
  const bool native = format == "native" || format == "both";
  const bool philly_traces = format == "philly-traces" || format == "both";

  // Every output is checked and opened before the run, so a clash or an
  // unwritable path fails before any simulation work. The trace files are
  // written by their own writers, and declared so their paths are checked.
  SimulateRun view;
  view.title = "philly " + config.simulation.scheduler.name + " seed " +
               std::to_string(config.simulation.seed) + ", " +
               std::to_string(days) + " days";
  std::vector<RunOutput> declared;
  if (native) {
    for (const char* name : TraceWriter::kFileNames) {
      declared.push_back({.flag = "--out", .path = out_dir + "/" + name});
    }
  }
  if (philly_traces) {
    for (const char* name : PhillyTracesExporter::kFileNames) {
      declared.push_back({.flag = "--out", .path = out_dir + "/" + name});
    }
  }
  for (RunOutput& output : SimulateOutputs(&view)) {
    output.path = args.Text(output.flag);
    if (!output.path.empty()) {
      declared.push_back(std::move(output));
    }
  }
  RunOutputs outputs(out_dir, std::move(declared));
  if (!outputs.Open()) {
    return 1;
  }
  outputs.Attach(&view, &config.simulation.obs);

  std::printf("simulating %d days (seed %llu, scheduler %s)...\n", days,
              static_cast<unsigned long long>(config.simulation.seed),
              config.simulation.scheduler.name.c_str());
  const ExperimentRun& run = KeepUntilExit(RunExperiment(config));
  view.jobs = &run.result.jobs;
  std::printf("%lld jobs completed\n\n", static_cast<long long>(run.num_jobs));

  ReportAnalyses analyses;
  if (!RunPostRun({.jobs = &run.result.jobs,
                   .sim = &run.result,
                   .trace_dir = out_dir,
                   .native = native,
                   .philly_traces = philly_traces ? &config.simulation.cluster : nullptr,
                   .figures_dir = args.Text("--figures"),
                   .profiler = config.simulation.obs.profiler},
                  pool, stdout, &analyses)) {
    return 1;
  }
  view.util_digest = analyses.util.digest;
  RunManifest manifest = args.Manifest();
  if (native) {
    manifest.outputs["trace"] = out_dir;
  }
  if (philly_traces) {
    manifest.outputs["philly-traces"] = out_dir;
  }
  return outputs.Finish(&manifest) ? 0 : 1;
}

// Compares the event-rebuilt jobs against a native trace, field by field,
// for every number both sources claim to know. Returns the mismatch count
// (printing the first few).
int CrossCheckAgainstTrace(const std::vector<JobRecord>& joined,
                           const std::vector<JobRecord>& native) {
  std::map<JobId, const JobRecord*> by_id;
  for (const JobRecord& job : native) {
    by_id[job.spec.id] = &job;
  }
  int mismatches = 0;
  const auto report = [&](JobId id, const char* field, double from_events,
                          double from_trace) {
    ++mismatches;
    if (mismatches <= 10) {
      std::fprintf(stderr,
                   "cross-check mismatch: job %lld %s: events say %g, "
                   "trace says %g\n",
                   static_cast<long long>(id), field, from_events, from_trace);
    }
  };
  if (joined.size() != native.size()) {
    std::fprintf(stderr, "cross-check mismatch: %zu jobs from events vs %zu "
                 "in the trace\n", joined.size(), native.size());
    ++mismatches;
  }
  for (const JobRecord& job : joined) {
    const auto it = by_id.find(job.spec.id);
    if (it == by_id.end()) {
      report(job.spec.id, "presence", 1, 0);
      continue;
    }
    const JobRecord& ref = *it->second;
    if (job.spec.vc != ref.spec.vc) {
      report(job.spec.id, "vc", job.spec.vc, ref.spec.vc);
    }
    if (job.spec.num_gpus != ref.spec.num_gpus) {
      report(job.spec.id, "num_gpus", job.spec.num_gpus, ref.spec.num_gpus);
    }
    if (job.spec.submit_time != ref.spec.submit_time) {
      report(job.spec.id, "submit_time",
             static_cast<double>(job.spec.submit_time),
             static_cast<double>(ref.spec.submit_time));
    }
    if (job.InitialQueueDelay() != ref.InitialQueueDelay()) {
      report(job.spec.id, "initial queue delay",
             static_cast<double>(job.InitialQueueDelay()),
             static_cast<double>(ref.InitialQueueDelay()));
    }
    if (job.attempts.size() != ref.attempts.size()) {
      report(job.spec.id, "attempt count",
             static_cast<double>(job.attempts.size()),
             static_cast<double>(ref.attempts.size()));
    }
    if (job.status != ref.status) {
      report(job.spec.id, "status", static_cast<int>(job.status),
             static_cast<int>(ref.status));
    }
    if (job.finish_time != ref.finish_time) {
      report(job.spec.id, "finish_time", static_cast<double>(job.finish_time),
             static_cast<double>(ref.finish_time));
    }
  }
  if (mismatches > 10) {
    std::fprintf(stderr, "... and %d more mismatches\n", mismatches - 10);
  }
  return mismatches;
}

// `analyze --from-events FILE [--trace DIR]`: rebuild the scheduler-stream
// analyses from the NDJSON event log alone; with --trace, also verify the
// rebuilt records against the native trace (the round-trip check the CI
// smoke job runs).
int RunAnalyzeFromEvents(const Args& args) {
  const std::string& path = args.Text("--from-events");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open event log %s\n", path.c_str());
    return 1;
  }
  std::string error;
  const std::vector<SchedEvent> events = EventLog::ReadNdjson(in, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "failed to parse %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const SimulationResult joined = JoinSchedulerEvents(events, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "inconsistent event stream in %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("rebuilt %zu jobs from %zu scheduler events in %s\n\n",
              joined.jobs.size(), events.size(), path.c_str());
  PrintEventReport(joined, stdout);

  const std::string& spans_path = args.Text("--spans");
  if (!spans_path.empty()) {
    std::ifstream spans_in(spans_path);
    if (!spans_in) {
      std::fprintf(stderr, "cannot open span stream %s\n", spans_path.c_str());
      return 1;
    }
    const std::vector<SpanRecord> spans =
        SpanLog::ReadNdjson(spans_in, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "failed to parse %s: %s\n", spans_path.c_str(),
                   error.c_str());
      return 1;
    }
    // First the conservation identity: every second a job measurably waited
    // is attributed to exactly one blame span, and the fairness/fragmentation
    // subtotals match the native per-wait attribution.
    if (!VerifyBlameConservation(spans, joined.jobs, &error)) {
      std::fprintf(stderr, "blame-conservation check failed for %s: %s\n",
                   spans_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("blame conservation verified: %zu spans account for every "
                "waited second of %zu jobs\n",
                spans.size(), joined.jobs.size());
    // Then Table 2 rebuilt from the attributed spans alone must equal the
    // native analysis, exactly.
    const DelayCauseResult native = AnalyzeDelayCauses(joined.jobs, nullptr);
    const DelayCauseResult from_spans = DelayCausesFromSpans(spans);
    if (!CrossCheckDelayCauses(native, from_spans, &error)) {
      std::fprintf(stderr,
                   "span-rebuilt Table 2 disagrees with the native analysis: "
                   "%s\n",
                   error.c_str());
      return 1;
    }
    std::printf("cross-check passed: Table 2 rebuilt from attributed spans "
                "matches the native analysis\n");
  }

  const std::string& dir = args.Text("--trace");
  if (!dir.empty()) {
    const auto native = TraceReader::ReadDirectory(dir, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const int mismatches = CrossCheckAgainstTrace(joined.jobs, native);
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "event log and native trace disagree (%d mismatches)\n",
                   mismatches);
      return 1;
    }
    std::printf("cross-check passed: %zu jobs agree with the native trace\n",
                native.size());
  }
  return 0;
}

// `analyze --telemetry FILE [--trace DIR]`: verify a telemetry stream
// against its embedded digest and summarize it. The sample-derived half is
// recomputed from the stream itself (self-integrity: any edited line flips
// it); with --trace the job-derived Table 3 half is recomputed from the
// native trace with the same code path the writer used, so both checks are
// exact, not within-epsilon.
int RunAnalyzeTelemetry(const Args& args) {
  const std::string& path = args.Text("--telemetry");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open telemetry stream %s\n", path.c_str());
    return 1;
  }
  TelemetryDigest written;
  bool found_digest = false;
  std::string error;
  const std::vector<TelemetrySample> samples =
      ClusterTimeSeries::ReadNdjson(in, &written, &found_digest, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "failed to parse %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("read %zu telemetry samples from %s\n", samples.size(),
              path.c_str());
  if (!found_digest) {
    std::fprintf(stderr, "%s carries no digest line; cannot verify\n",
                 path.c_str());
    return 1;
  }

  const TelemetryDigest recomputed = DigestOfSamples(samples);
  if (!SampleAggregatesEqual(recomputed, written)) {
    std::fprintf(stderr,
                 "sample digest mismatch: stream says samples=%lld "
                 "used_gpu_samples=%lld occ_sum=%.17g util_obs_sum=%.17g, "
                 "recomputed samples=%lld used_gpu_samples=%lld occ_sum=%.17g "
                 "util_obs_sum=%.17g\n",
                 static_cast<long long>(written.samples),
                 static_cast<long long>(written.used_gpu_samples),
                 written.occupancy_sum, written.util_observed_sum,
                 static_cast<long long>(recomputed.samples),
                 static_cast<long long>(recomputed.used_gpu_samples),
                 recomputed.occupancy_sum, recomputed.util_observed_sum);
    return 1;
  }
  std::printf("sample aggregates verified against the embedded digest\n");

  // Table 3 aggregate means, rebuilt from the digest the writer derived.
  std::printf("\n=== Table 3 utilization aggregates (from telemetry) ===\n");
  TextTable table({"class", "weight", "mean util (%)"});
  static const char* kClassNames[TelemetryDigest::kNumClasses] = {
      "1 GPU", "4 GPU", "8 GPU", "16 GPU", "all"};
  for (int c = 0; c < TelemetryDigest::kNumClasses; ++c) {
    const double weight = written.util_weight[static_cast<size_t>(c)];
    const double mean =
        weight > 0.0
            ? written.util_weighted_sum[static_cast<size_t>(c)] / weight
            : 0.0;
    table.AddRow({kClassNames[c], FormatDouble(weight, 0),
                  FormatDouble(mean, 2)});
  }
  std::printf("%s\n", table.Render().c_str());

  const std::string& dir = args.Text("--trace");
  if (!dir.empty()) {
    const auto native = TraceReader::ReadDirectory(dir, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const TelemetryDigest from_trace = ComputeUtilDigest(native);
    if (!JobAggregatesEqual(from_trace, written)) {
      std::fprintf(stderr,
                   "utilization digest mismatch: stream says jobs=%lld "
                   "segments=%lld overall wsum=%.17g, trace says jobs=%lld "
                   "segments=%lld overall wsum=%.17g\n",
                   static_cast<long long>(written.jobs),
                   static_cast<long long>(written.segments),
                   written.util_weighted_sum[TelemetryDigest::kOverallClass],
                   static_cast<long long>(from_trace.jobs),
                   static_cast<long long>(from_trace.segments),
                   from_trace.util_weighted_sum[TelemetryDigest::kOverallClass]);
      return 1;
    }
    std::printf("cross-check passed: utilization aggregates match the native "
                "trace (%zu jobs)\n", native.size());
  }
  return 0;
}

// `analyze --trace DIR`: read a native trace back (or the public release's
// cluster_job_log) and print every table.
int RunAnalyzeTrace(const Args& args) {
  const ExperimentPool pool;  // before any output, as in RunSimulateOrReport
  const std::string& dir = args.Text("--trace");
  if (!CreateFiguresDir(args)) {
    return 1;
  }
  std::vector<JobRecord>& jobs = KeepUntilExit(std::vector<JobRecord>{});
  if (args.Has("--philly-traces")) {
    // Public-release layout: parse cluster_job_log. Telemetry-dependent
    // analyses are skipped (the job log carries no utilization).
    std::ifstream job_log(dir + "/cluster_job_log");
    if (!job_log) {
      std::fprintf(stderr, "cannot open %s/cluster_job_log\n", dir.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << job_log.rdbuf();
    PhillyTracesImporter importer;
    std::string error;
    jobs = importer.ImportJobLog(buffer.str(), &error);
    if (!error.empty()) {
      std::fprintf(stderr, "failed to parse cluster_job_log: %s\n", error.c_str());
      return 1;
    }
    const PhillyTracesImporter::Tolerated& tolerated = importer.tolerated();
    std::printf("imported %zu jobs (%d VCs, %d users, %d machines) from %s\n"
                "tolerated: %lld jobs without a submission time, %lld attempts without "
                "usable times, %lld statuses read as Unsuccessful, %lld placements "
                "without GPUs\n\n",
                jobs.size(), importer.num_vcs(), importer.num_users(),
                importer.num_machines(), dir.c_str(),
                static_cast<long long>(tolerated.jobs_without_submit_time),
                static_cast<long long>(tolerated.attempts_without_times),
                static_cast<long long>(tolerated.other_statuses),
                static_cast<long long>(tolerated.placements_without_gpus));
  } else {
    std::string error;
    jobs = TraceReader::ReadDirectory(dir, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const ValidationReport validation = ValidateJobs(jobs);
    if (!validation.ok()) {
      std::fprintf(stderr, "trace failed validation: %s\n",
                   validation.Summary().c_str());
      return 1;
    }
    std::printf("loaded and validated %zu jobs from %s\n\n", jobs.size(),
                dir.c_str());
  }
  ReportAnalyses analyses;
  return RunPostRun({.jobs = &jobs, .figures_dir = args.Text("--figures")}, pool, stdout,
                    &analyses)
             ? 0
             : 1;
}

// Runs the schedulers x retry-policies x seeds cross product through the
// experiment pool and prints one summary row per run. Rows come out in
// (scheduler, retry, seed) order no matter how many worker threads execute
// the simulations.
int RunSweep(const Args& args) {
  const int days = static_cast<int>(args.Int("--days"));
  const std::vector<std::string_view> scheduler_names = args.Items("--schedulers");
  const std::vector<std::string_view> retry_names =
      args.Has("--retries") ? args.Items("--retries")
                            : std::vector<std::string_view>{args.Text("--retry")};
  const std::vector<int64_t>& seeds = args.Ints("--seeds");
  std::vector<ExperimentConfig> configs;
  for (const std::string_view scheduler : scheduler_names) {
    for (const std::string_view retry : retry_names) {
      for (const int64_t seed : seeds) {
        ExperimentConfig config = ExperimentConfig::BenchScale(days, static_cast<uint64_t>(seed));
        ApplySchedulerOptions(args, scheduler, retry, &config.simulation);
        configs.push_back(std::move(config));
      }
    }
  }

  const ExperimentPool pool(static_cast<int>(args.Int("--threads")));
  std::printf("sweeping %zu scheduler(s) x %zu retry policy(ies) x %zu "
              "seed(s) over %d days on %d worker thread(s)...\n\n",
              scheduler_names.size(), retry_names.size(), seeds.size(), days,
              pool.num_threads());
  const std::vector<ExperimentRun> runs = pool.RunMany(std::move(configs));

  // Each run's row, computed on the same pool and stored by index.
  struct Row {
    double passed_share = 0.0;
    double mean_queue = 0.0;
    double mean_util = 0.0;
  };
  std::vector<Row> rows(runs.size());
  pool.ParallelFor(static_cast<int>(runs.size()), [&](int i) {
    const std::vector<JobRecord>& jobs = runs[static_cast<size_t>(i)].result.jobs;
    double queue_sum = 0.0;
    for (const auto& job : jobs) {
      queue_sum += ToMinutes(job.InitialQueueDelay());
    }
    rows[static_cast<size_t>(i)] = {
        AnalyzeStatus(jobs).by_status[0].count_share,
        jobs.empty() ? 0.0 : queue_sum / static_cast<double>(jobs.size()),
        AnalyzeUtilization(jobs).all.Mean()};
  });

  TextTable table({"scheduler", "retry", "seed", "jobs", "passed %",
                   "mean queue (min)", "mean util (%)", "preemptions"});
  for (size_t s = 0; s < scheduler_names.size(); ++s) {
    for (size_t r = 0; r < retry_names.size(); ++r) {
      for (size_t k = 0; k < seeds.size(); ++k) {
        const size_t i = (s * retry_names.size() + r) * seeds.size() + k;
        table.AddRow({std::string(scheduler_names[s]), std::string(retry_names[r]),
                      std::to_string(seeds[k]), std::to_string(runs[i].num_jobs),
                      FormatPercent(rows[i].passed_share, 1),
                      FormatDouble(rows[i].mean_queue, 2), FormatDouble(rows[i].mean_util, 1),
                      std::to_string(runs[i].result.preemptions)});
      }
    }
  }
  std::printf("%s\n", table.Render().c_str());
  return 0;
}

// `fleet`: run N clusters behind the front-door router and summarize routing,
// queueing, and the fleet GPU-time ledger.
int RunFleet(const Args& args) {
  const int days = static_cast<int>(args.Int("--days"));
  const uint64_t seed = static_cast<uint64_t>(args.Int("--seed"));
  const int threads = static_cast<int>(args.Int("--threads"));
  std::vector<ClusterConfig> cluster_configs;
  ParseClustersSpec(args.Text("--clusters"), &cluster_configs, nullptr);  // checked by the table
  const std::string& router_name = args.Text("--router");
  FleetConfig config;
  config.router.policy = static_cast<RouterPolicy>(args.Choice("--router"));
  if (args.Has("--spill-threshold")) {
    config.router.spill_threshold = args.Int("--spill-threshold");
  }
  config.collect_spans = args.Has("--collect-spans");
  // PHILLY_BENCH_THREADS is read, and rejected when malformed, before any
  // output exists.
  config.threads = threads > 0 ? threads : DefaultPoolThreads();
  for (size_t i = 0; i < cluster_configs.size(); ++i) {
    config.clusters.push_back(
        {"cluster" + std::to_string(i),
         FleetClusterExperiment(cluster_configs[i], days, seed,
                                static_cast<int>(i))});
  }

  // Every output is checked and opened before the run, and the members'
  // recorders stream into their files and the dashboard's folds during it.
  FleetRun run;
  run.title = "philly fleet (" + router_name + ") seed " + std::to_string(seed) + ", " +
              std::to_string(days) + " days";
  RunOutputs outputs(args.Text("--out"),
                     FleetOutputs(&run, config, args.Text("--out"), args.Text(kDashboardFlag)));
  if (!outputs.Open()) {
    return 1;
  }
  AttachFleet(&outputs, &run, &config);

  std::printf("simulating a %zu-cluster fleet for %d days (seed %llu, router "
              "%s)...\n",
              config.clusters.size(), days,
              static_cast<unsigned long long>(seed), router_name.c_str());
  FleetSimulation(config).Run(&run.result);
  const FleetResult& result = run.result;
  std::printf("%lld jobs routed (%lld off their home cluster)\n\n",
              static_cast<long long>(result.total_jobs),
              static_cast<long long>(result.spilled_jobs));

  SummarizeFleet(config, router_name, &run);
  TextTable table({"cluster", "GPUs", "jobs", "home", "in", "away",
                   "mean occ %", "p95 queue (min)"});
  for (const FleetDashboardSection::Cluster& cluster : run.section.clusters) {
    table.AddRow({cluster.name, std::to_string(cluster.total_gpus),
                  std::to_string(cluster.jobs), std::to_string(cluster.home_jobs),
                  std::to_string(cluster.routed_in), std::to_string(cluster.routed_away),
                  FormatDouble(cluster.mean_occupancy * 100.0, 1),
                  FormatDouble(cluster.p95_queue_minutes, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("fleet GPU-time ledger: %.1f allocated GPU-hours = %.1f useful "
              "+ %.1f fault-lost + %.1f ckpt-overhead + %.1f ckpt-stall\n",
              result.allocated_gpu_seconds / 3600.0,
              result.useful_gpu_seconds / 3600.0,
              result.machine_fault_lost_gpu_seconds / 3600.0,
              result.ckpt_overhead_gpu_seconds / 3600.0,
              result.ckpt_stall_gpu_seconds / 3600.0);

  RunManifest manifest = args.Manifest();
  manifest.threads = threads;
  return outputs.Finish(&manifest) ? 0 : 1;
}

// `explain --job ID --spans FILE`: reconstruct one job's causal timeline from
// the span stream alone. An unreadable or unparseable stream, or a job with
// no spans, exits 1 with a message naming exactly what was wrong.
int RunExplain(const Args& args) {
  const JobId job_id = args.Int("--job");
  const std::string& path = args.Text("--spans");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open span stream %s\n", path.c_str());
    return 1;
  }
  std::string error;
  const std::vector<SpanRecord> spans = SpanLog::ReadNdjson(in, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "failed to parse %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  const std::string timeline = RenderJobExplanation(job_id, spans);
  if (timeline.empty()) {
    std::fprintf(stderr, "no spans for job %lld in %s (%zu spans read)\n",
                 static_cast<long long>(job_id), path.c_str(), spans.size());
    return 1;
  }
  std::printf("%s", timeline.c_str());
  return 0;
}

}  // namespace
}  // namespace philly

int main(int argc, char** argv) {
  using namespace philly;
  static const std::map<std::string_view, int (*)(const Args&)> kRun = {
      {"simulate", RunSimulateOrReport},
      {"report", RunSimulateOrReport},
      {"analyze --trace", RunAnalyzeTrace},
      {"analyze --from-events", RunAnalyzeFromEvents},
      {"analyze --telemetry", RunAnalyzeTelemetry},
      {"sweep", RunSweep},
      {"fleet", RunFleet},
      {"explain", RunExplain},
  };
  Args args;
  std::string error;
  if (!ParseArgs({argv + 1, static_cast<size_t>(argc - 1)}, &args, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  return kRun.at(args.command())(args);
}
