// phillyctl — command-line front end for the phillysim library.
//
//   phillyctl simulate --days 10 --seed 42 --out DIR [options]
//       Run a simulation and write the trace artifact(s) plus a
//       manifest.json recording seed/config/knobs for reproduction.
//   phillyctl analyze --trace DIR [--figures DIR]
//       Re-analyze a previously written native trace and print every table.
//   phillyctl analyze --from-events FILE [--trace DIR]
//       Rebuild the scheduler-stream analyses (Table 6, Fig 2, Fig 3,
//       Table 2) from an NDJSON event log alone. With --trace, cross-check
//       the rebuilt per-job records against the native trace and fail on
//       any divergence.
//   phillyctl analyze --telemetry FILE [--trace DIR]
//       Rebuild the Table 3 utilization aggregates from a telemetry stream
//       alone and verify them against the digest the writer embedded (exact,
//       bitwise). With --trace, also recompute the job-derived half from the
//       native trace and fail on any divergence.
//   phillyctl analyze --from-events FILE --spans FILE
//       Additionally verify the causal span stream: the blame-conservation
//       identity against the event-rebuilt job records (every attributed
//       interval sums exactly to the measured queueing delay), then rebuild
//       Table 2 from the attributed spans alone and cross-check it against
//       the native analysis, failing on any divergence.
//   phillyctl explain --job ID --spans FILE
//       Print the causal timeline of one job — when it queued, what each
//       stretch of waiting was blamed on, when it ran, why each attempt
//       ended — reconstructed from the span stream alone.
//   phillyctl report [--days N] [--seed S] [options]
//       Run a simulation and print the full analysis. Takes simulate's
//       options except --out and --format: it writes no trace directory,
//       only the observability outputs and figures it is asked for.
//   phillyctl sweep [--days N] [--seeds S1,S2,...] [--schedulers a,b,...]
//                   [--retries p1,p2,...] [--threads N] [options]
//       Run the schedulers x retry-policies x seeds cross product through the
//       parallel experiment pool and print one summary row per run.
//       Each --seeds entry takes simulate's --seed range (0..2147483647), so
//       any row can be rerun alone; sweep itself takes no --seed. An empty
//       entry in --seeds, --schedulers or --retries exits 2.
//       --retries defaults to the single --retry value; --threads overrides
//       the pool size (default: PHILLY_BENCH_THREADS or hardware
//       concurrency); results are identical for any thread count.
//   phillyctl fleet [--clusters SPEC] [--router POLICY]
//                   [--spill-threshold N] [--days N] [--seed S] [--threads N]
//                   [--out DIR] [--html FILE]
//       Run a multi-cluster fleet behind the front-door job router
//       (docs/fleet.md) and print a per-cluster routing/queueing summary.
//       --clusters is either a count ("4": four paper-scale clusters) or a
//       comma list of RxS / RxSxG topologies ("15x16x8,4x24x2"); each
//       member's workload is scaled to its GPU capacity. --router is pinned,
//       least-loaded, or spillover (default pinned); --spill-threshold (home
//       queue depth, spillover only) defaults to 4. --out writes the fleet
//       route stream, every per-cluster event and telemetry stream, and a
//       manifest.json recording the knobs; --html renders the dashboard with
//       a fleet routing section.
//
//   Each subcommand accepts only the options listed for it below: an unknown
//   option, a value flag with no value, or a positional argument exits 2
//   with a message naming it and the subcommand.
//
//   Scheduler options (simulate/report; sweep takes all but --scheduler):
//     --scheduler philly|fifo|optimus|tiresias|gandiva   (default philly)
//     --retry fixed|adaptive|predictive                  (default fixed)
//     --prerun            enable the 1-GPU pre-run pool (§5)
//     --migration         enable checkpoint-migration defragmentation (§5)
//     --dedicated         place small jobs on dedicated servers (§5)
//     --strict-locality   never relax locality constraints
//     --faults            enable the calibrated machine-fault process
//                         (node crashes, GPU ECC drains, rack outages)
//     --checkpoint-mins N periodic-checkpoint period for machine-fault
//                         recovery (default 0 = restart from scratch)
//     --ckpt-policy fixed|daly|stagger  checkpoint scheduling policy when the
//                         I/O model is on (default fixed)
//     --ckpt-bw GBPS      per-rack shared checkpoint storage bandwidth in
//                         GB/s; > 0 enables the checkpoint I/O interference
//                         model (default 0 = free instantaneous checkpoints)
//     --ckpt-size-gb-per-gpu GB  checkpoint bytes written per allocated GPU
//                         (default 2.0; requires --ckpt-bw to take effect)
//   Output options (simulate):
//     --format native|philly-traces|both                 (default native)
//   Observability options (simulate/report):
//     --events-out FILE    write the scheduler event stream as NDJSON
//     --metrics-out FILE   write aggregated run metrics as JSON
//     --trace-out FILE     write wall-clock phase slices as Chrome trace-event
//                          JSON (load in ui.perfetto.dev or chrome://tracing)
//     --telemetry-out FILE write the per-minute cluster telemetry stream as
//                          NDJSON with a trailing integrity digest line
//     --spans-out FILE     write the causal span stream (queued/blame/running/
//                          ckpt spans, docs/observability.md) as NDJSON
//     --spans-trace-out FILE  write the span tree as Chrome trace-event JSON
//                          (load in ui.perfetto.dev or chrome://tracing)
//     --html FILE          render a self-contained HTML dashboard (inline SVG,
//                          no external assets) from the run's log streams;
//                          includes a "Why jobs waited" section when a span
//                          sink is attached (--spans-out / --spans-trace-out)
//   Input options (analyze / explain):
//     --philly-traces     treat --trace as the public-release layout and
//                         parse cluster_job_log (telemetry analyses skipped)
//     --from-events FILE  analyze an NDJSON scheduler event log
//     --telemetry FILE    verify and summarize an NDJSON telemetry stream
//     --spans FILE        an NDJSON causal span stream (with analyze
//                         --from-events: verify + cross-check; with explain:
//                         the stream to reconstruct the timeline from)
//   Fleet options (fleet):
//     --collect-spans     collect per-cluster span streams; with --out each
//                         is written as <cluster>.spans.ndjson, and --html
//                         gains the "Why jobs waited" section

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/sha256.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/analysis.h"
#include "src/core/event_join.h"
#include "src/core/experiment.h"
#include "src/core/html_report.h"
#include "src/core/runner.h"
#include "src/core/report.h"
#include "src/core/span_analysis.h"
#include "src/core/validate.h"
#include "src/fault/checkpoint_io.h"
#include "src/fleet/fleet.h"
#include "src/fault/fault_process.h"
#include "src/obs/event_log.h"
#include "src/obs/manifest.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/output_file.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_profiler.h"
#include "src/trace/philly_format.h"
#include "src/trace/trace_io.h"

namespace philly {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  std::map<std::string, bool> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it != values.end() ? it->second : fallback;
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

int Usage() {
  std::fprintf(stderr,
               "usage: phillyctl <simulate|analyze|report|sweep|fleet|explain> "
               "[options]\n"
               "see the header of tools/phillyctl.cc or README.md for the "
               "option list\n");
  return 2;
}

bool SchedulerByName(const std::string& name, SchedulerConfig* sched) {
  if (name == "philly") {
    *sched = SchedulerConfig::Philly();
  } else if (name == "fifo") {
    *sched = SchedulerConfig::Fifo();
  } else if (name == "optimus") {
    *sched = SchedulerConfig::Optimus();
  } else if (name == "tiresias") {
    *sched = SchedulerConfig::Tiresias();
  } else if (name == "gandiva") {
    *sched = SchedulerConfig::Gandiva();
  } else {
    std::fprintf(stderr, "unknown scheduler '%s'\n", name.c_str());
    return false;
  }
  return true;
}

bool RetryByName(const std::string& name, SchedulerConfig::RetryPolicyKind* kind) {
  if (name == "fixed") {
    *kind = SchedulerConfig::RetryPolicyKind::kFixed;
  } else if (name == "adaptive") {
    *kind = SchedulerConfig::RetryPolicyKind::kAdaptive;
  } else if (name == "predictive") {
    *kind = SchedulerConfig::RetryPolicyKind::kPredictive;
  } else {
    std::fprintf(stderr, "unknown retry policy '%s'\n", name.c_str());
    return false;
  }
  return true;
}

// Applies the options shared by every subcommand (retry policy and the §5
// mechanism flags) on top of an already-selected scheduler preset.
bool ApplyCommonSchedulerOptions(const Args& args, SchedulerConfig* sched) {
  if (!RetryByName(args.Get("--retry", "fixed"), &sched->retry_policy)) {
    return false;
  }
  sched->enable_prerun_pool = args.Has("--prerun");
  sched->enable_migration = args.Has("--migration");
  if (args.Has("--dedicated")) {
    sched->placer.pack_small_jobs = false;
  }
  if (args.Has("--strict-locality")) {
    sched->max_relax_level = 0;
  }
  return true;
}

bool ApplySchedulerOptions(const Args& args, SchedulerConfig* sched) {
  return SchedulerByName(args.Get("--scheduler", "philly"), sched) &&
         ApplyCommonSchedulerOptions(args, sched);
}

// Strict numeric parsing for every numeric flag. std::atoi-style silent
// defaulting would let a typo'd scale, seed, period or bandwidth invalidate a
// whole study, so malformed values fail loudly instead (the same contract as
// the PHILLY_BENCH_* env knobs).
bool ParseStrictLong(const std::string& text, long* out) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseStrictDouble(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

// Reads integer flag `key` into *out (`fallback` when absent), strictly and
// range-checked. A malformed or out-of-range value prints
// "KEY 'X' is invalid: expected ..." and returns false.
bool GetIntFlag(const Args& args, const std::string& key, int fallback,
                long min, long max, const char* expected, int* out) {
  const auto it = args.values.find(key);
  if (it == args.values.end()) {
    *out = fallback;
    return true;
  }
  long value = 0;
  if (!ParseStrictLong(it->second, &value) || value < min || value > max) {
    std::fprintf(stderr, "%s '%s' is invalid: expected %s\n", key.c_str(),
                 it->second.c_str(), expected);
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// The run-scale flags of the simulating commands. Each command's option table
// decides which of them it takes; an absent flag reads as its default.
struct RunFlags {
  int days = 0;
  int seed = 0;
  int threads = 0;  // sweep and fleet; 0 = PHILLY_BENCH_THREADS or hardware concurrency
};

bool ParseRunFlags(const Args& args, int default_days, RunFlags* flags) {
  return GetIntFlag(args, "--days", default_days, 1, INT_MAX,
                    "an integer number of days, at least 1", &flags->days) &&
         GetIntFlag(args, "--seed", 42, 0, INT_MAX,
                    "an integer seed between 0 and 2147483647", &flags->seed) &&
         GetIntFlag(args, "--threads", 0, 0, INT_MAX,
                    "a non-negative integer thread count (0 = "
                    "PHILLY_BENCH_THREADS or hardware concurrency)",
                    &flags->threads);
}

// Parses and validates --checkpoint-mins and the --ckpt-* knobs into the
// scheduler config (period, policy) and the checkpoint I/O config (bandwidth,
// write size). Returns 0 on success; on an invalid value prints a clear
// message and returns 1, which the caller propagates as the process exit
// code.
int ApplyCheckpointOptions(const Args& args, SchedulerConfig* sched,
                           CheckpointIoConfig* ckpt_io) {
  if (args.values.count("--checkpoint-mins") > 0) {
    const std::string text = args.Get("--checkpoint-mins", "");
    long mins = 0;
    if (!ParseStrictLong(text, &mins) || mins < 0) {
      std::fprintf(stderr,
                   "--checkpoint-mins '%s' is invalid: expected a "
                   "non-negative integer number of minutes (0 disables "
                   "periodic checkpoints)\n",
                   text.c_str());
      return 1;
    }
    sched->checkpoint_period = Minutes(static_cast<int>(mins));
  }
  if (args.values.count("--ckpt-policy") > 0) {
    const std::string name = args.Get("--ckpt-policy", "");
    if (name == "fixed") {
      sched->checkpoint_policy = CheckpointPolicy::kFixedPeriod;
    } else if (name == "daly") {
      sched->checkpoint_policy = CheckpointPolicy::kDalyOptimal;
    } else if (name == "stagger") {
      sched->checkpoint_policy = CheckpointPolicy::kCooperativeStagger;
    } else {
      std::fprintf(stderr,
                   "--ckpt-policy '%s' is invalid: expected fixed, daly, or "
                   "stagger\n",
                   name.c_str());
      return 1;
    }
  }
  if (args.values.count("--ckpt-bw") > 0) {
    const std::string text = args.Get("--ckpt-bw", "");
    double bw = 0.0;
    if (!ParseStrictDouble(text, &bw) || bw <= 0.0) {
      std::fprintf(stderr,
                   "--ckpt-bw '%s' is invalid: expected a positive per-rack "
                   "bandwidth in GB/s\n",
                   text.c_str());
      return 1;
    }
    ckpt_io->rack_bandwidth_gbps = bw;
  }
  if (args.values.count("--ckpt-size-gb-per-gpu") > 0) {
    const std::string text = args.Get("--ckpt-size-gb-per-gpu", "");
    double size = 0.0;
    if (!ParseStrictDouble(text, &size) || size <= 0.0) {
      std::fprintf(stderr,
                   "--ckpt-size-gb-per-gpu '%s' is invalid: expected a "
                   "positive write size in GB per allocated GPU\n",
                   text.c_str());
      return 1;
    }
    ckpt_io->size_gb_per_gpu = size;
  }
  return 0;
}

// Report sections shared by `report`, `analyze --trace`, and
// `analyze --from-events`. The first four consume only the scheduler stream
// (JobRecord scheduling fields + counters), so an event-log join can
// reproduce them without telemetry or framework logs.

void PrintStatusSection(const std::vector<JobRecord>& jobs) {
  const auto status = AnalyzeStatus(jobs);
  std::printf("=== Table 6: job status vs GPU time ===\n");
  TextTable status_table({"status", "count", "count share", "GPU-time share"});
  for (int s = 0; s < 3; ++s) {
    const auto& row = status.by_status[static_cast<size_t>(s)];
    status_table.AddRow({std::string(ToString(static_cast<JobStatus>(s))),
                         std::to_string(row.count), FormatPercent(row.count_share, 1),
                         FormatPercent(row.gpu_time_share, 1)});
  }
  std::printf("%s\n", status_table.Render().c_str());
}

void PrintRunTimeSection(const std::vector<JobRecord>& jobs) {
  const auto runtimes = AnalyzeRunTimes(jobs);
  std::printf("=== Figure 2: run times ===\n");
  TextTable rt_table({"bucket", "n", "median (min)", "p90 (min)", "p99 (min)"});
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto& hist = runtimes.cdf_minutes[static_cast<size_t>(b)];
    rt_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                     FormatDouble(hist.Count(), 0), FormatDouble(hist.Median(), 1),
                     FormatDouble(hist.Quantile(0.9), 1),
                     FormatDouble(hist.Quantile(0.99), 1)});
  }
  std::printf("%s  jobs over one week: %s\n\n", rt_table.Render().c_str(),
              FormatPercent(runtimes.fraction_over_one_week, 2).c_str());
}

void PrintQueueDelaySection(const std::vector<JobRecord>& jobs) {
  const auto delays = AnalyzeQueueDelays(jobs);
  std::printf("=== Figure 3: queueing delay ===\n");
  TextTable d_table({"bucket", "P(<=1min)", "P(<=10min)", "p90 (min)", "p99 (min)"});
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto& hist = delays.overall[static_cast<size_t>(b)];
    d_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                    FormatPercent(hist.CdfAt(1.0), 1), FormatPercent(hist.CdfAt(10.0), 1),
                    FormatDouble(hist.Quantile(0.9), 2),
                    FormatDouble(hist.Quantile(0.99), 2)});
  }
  std::printf("%s\n", d_table.Render().c_str());
}

void PrintDelayCauseSection(const std::vector<JobRecord>& jobs,
                            const SimulationResult* sim) {
  const auto causes = AnalyzeDelayCauses(jobs, sim);
  std::printf("=== Table 2: delay causes ===\n");
  TextTable c_table({"bucket", "fair-share", "fragmentation"});
  for (int b = 1; b < kNumSizeBuckets; ++b) {
    const auto& row = causes.by_bucket[static_cast<size_t>(b)];
    c_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                    std::to_string(row.fair_share), std::to_string(row.fragmentation)});
  }
  std::printf("%swaiting time: %s fragmentation / %s fair-share\n",
              c_table.Render().c_str(),
              FormatPercent(causes.fragmentation_time_fraction, 1).c_str(),
              FormatPercent(causes.fair_share_time_fraction, 1).c_str());
  if (sim != nullptr) {
    std::printf("out-of-order: %s of decisions, %s benign; preemptions %lld; "
                "migrations %lld\n",
                FormatPercent(causes.out_of_order_fraction, 1).c_str(),
                FormatPercent(causes.out_of_order_benign_fraction, 1).c_str(),
                static_cast<long long>(sim->preemptions),
                static_cast<long long>(sim->migrations));
  }
  std::printf("\n");
}

void PrintReport(const std::vector<JobRecord>& jobs, const SimulationResult* sim) {
  PrintStatusSection(jobs);
  PrintRunTimeSection(jobs);
  PrintQueueDelaySection(jobs);
  PrintDelayCauseSection(jobs, sim);

  const auto util = AnalyzeUtilization(jobs);
  std::printf("=== Figure 5 / Table 3: GPU utilization ===\n");
  TextTable u_table({"size", "mean util (%)", "p50", "p90"});
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    const auto& hist = util.by_size[static_cast<size_t>(i)];
    u_table.AddRow({std::to_string(kRepresentativeSizes[i]) + " GPU",
                    FormatDouble(hist.Mean(), 1), FormatDouble(hist.Median(), 1),
                    FormatDouble(hist.Quantile(0.9), 1)});
  }
  std::printf("%soverall mean: %.1f%%\n\n", u_table.Render().c_str(),
              util.all.Mean());

  const auto failures = AnalyzeFailures(jobs);
  std::printf("=== Table 7: failures (top 10 by trials) ===\n");
  std::vector<const FailureAnalysisResult::ReasonRow*> rows;
  for (const auto& row : failures.rows) {
    if (row.trials > 0) {
      rows.push_back(&row);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->trials > b->trials; });
  TextTable f_table({"reason", "trials", "jobs", "users", "RTF p50 (min)", "RTF share"});
  for (size_t i = 0; i < rows.size() && i < 10; ++i) {
    f_table.AddRow({std::string(ToString(rows[i]->reason)),
                    std::to_string(rows[i]->trials), std::to_string(rows[i]->jobs),
                    std::to_string(rows[i]->users),
                    FormatDouble(rows[i]->rtf_p50_min, 2),
                    FormatPercent(rows[i]->rtf_total_share, 1)});
  }
  std::printf("%stotal trials %lld; unsuccessful rate %s; mean retries %.3f\n",
              f_table.Render().c_str(), static_cast<long long>(failures.total_trials),
              FormatPercent(failures.unsuccessful_rate_all, 1).c_str(),
              failures.mean_retries_all);

  if (sim != nullptr && sim->machine_faults_injected > 0) {
    std::printf(
        "\n=== Machine faults ===\n"
        "%lld fault events; %lld server-downs; %lld attempts killed; "
        "%.1f GPU-hours lost\n",
        static_cast<long long>(sim->machine_faults_injected),
        static_cast<long long>(sim->machine_fault_server_downs),
        static_cast<long long>(sim->machine_fault_kills),
        sim->machine_fault_lost_gpu_seconds / 3600.0);
  }
  if (sim != nullptr && sim->ckpt_writes_started > 0) {
    std::printf(
        "\n=== Checkpoint I/O ===\n"
        "%lld writes started (%lld completed, %lld interrupted); "
        "%.1f GPU-hours overhead; %.1f GPU-hours stalled on contention\n",
        static_cast<long long>(sim->ckpt_writes_started),
        static_cast<long long>(sim->ckpt_writes_completed),
        static_cast<long long>(sim->ckpt_writes_interrupted),
        sim->ckpt_overhead_gpu_seconds / 3600.0,
        sim->ckpt_stall_gpu_seconds / 3600.0);
  }
}

// The subset of the report a scheduler event log can reproduce on its own.
// Utilization, failure, and host-resource tables need the telemetry and
// framework streams, which the event stream deliberately does not carry.
void PrintEventReport(const SimulationResult& joined) {
  PrintStatusSection(joined.jobs);
  PrintRunTimeSection(joined.jobs);
  PrintQueueDelaySection(joined.jobs);
  PrintDelayCauseSection(joined.jobs, &joined);
}

void ExportFigures(const std::vector<JobRecord>& jobs, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const auto runtimes = AnalyzeRunTimes(jobs);
  const auto delays = AnalyzeQueueDelays(jobs);
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    WriteCdfCsv(runtimes.cdf_minutes[static_cast<size_t>(b)],
                dir + "/fig2_runtime_bucket" + std::to_string(b) + ".csv");
    WriteCdfCsv(delays.overall[static_cast<size_t>(b)],
                dir + "/fig3_delay_bucket" + std::to_string(b) + ".csv");
  }
  const auto util = AnalyzeUtilization(jobs);
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    WriteCdfCsv(util.by_size[static_cast<size_t>(i)],
                dir + "/fig5_util_" + std::to_string(kRepresentativeSizes[i]) +
                    "gpu.csv");
  }
  const auto host = AnalyzeHostResources(jobs);
  WriteCdfCsv(host.cpu_util, dir + "/fig7_cpu.csv");
  WriteCdfCsv(host.memory_util, dir + "/fig7_memory.csv");
  std::printf("figure series written to %s/\n", dir.c_str());
}

// Opens `path` for writing (as `<path>.partial` until committed), or prints
// "cannot write WHAT to PATH" and returns null.
std::unique_ptr<OutputFile> OpenOutput(const std::string& path, const char* what) {
  auto file = std::make_unique<OutputFile>(path);
  if (!file->is_open()) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return nullptr;
  }
  return file;
}

// Finishes one output: `write(out)` adds whatever the run has not streamed
// into the file yet, the file is committed under its final name, and the
// sink is recorded in the manifest with the SHA-256 of every byte in it, so
// a later reader can prove the file on disk is the one this run produced.
template <typename WriteFn>
bool FinishOutput(OutputFile& file, const char* what, const std::string& sink,
                  RunManifest* manifest, WriteFn write) {
  write(file.stream());
  if (!file.Commit()) {
    std::fprintf(stderr, "error while writing %s to %s\n", what,
                 file.path().c_str());
    return false;
  }
  manifest->outputs[sink] = file.path();
  manifest->digests[sink] = file.sha256();
  return true;
}

// OpenOutput then FinishOutput, for an output written whole after its run.
template <typename WriteFn>
bool WriteObsFile(const std::string& path, const char* what,
                  const std::string& sink, RunManifest* manifest, WriteFn write) {
  const std::unique_ptr<OutputFile> file = OpenOutput(path, what);
  return file != nullptr && FinishOutput(*file, what, sink, manifest, write);
}

// An output file and the flag that asked for it ("--out" for the fixed files
// an output directory receives).
struct OutputPath {
  std::string flag;
  std::string path;
};

// Rejects two outputs that name the same file. Their writers would
// interleave bytes, and the manifest would record a digest for a file another
// output then overwrote. Paths are compared absolute and normalized, with
// symlinks resolved as far as the path exists.
bool RejectSharedPaths(const std::vector<OutputPath>& outputs) {
  std::map<std::filesystem::path, const OutputPath*> seen;
  for (const OutputPath& output : outputs) {
    std::error_code error;
    const std::filesystem::path absolute =
        std::filesystem::absolute(output.path, error);
    std::filesystem::path key = std::filesystem::weakly_canonical(absolute, error);
    if (error) {
      key = absolute.lexically_normal();
    }
    const auto [it, inserted] = seen.emplace(key, &output);
    if (!inserted) {
      std::fprintf(stderr,
                   "%s and %s both name %s: each output needs a file of its "
                   "own\n",
                   it->second->flag.c_str(), output.flag.c_str(),
                   output.path.c_str());
      return false;
    }
  }
  return true;
}

// Creates an output directory, or prints why it cannot and returns false.
bool CreateOutputDirectory(const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create output directory %s: %s\n", dir.c_str(),
                 error.message().c_str());
    return false;
  }
  return true;
}

// Every file a simulate/report run writes, flag by flag.
std::vector<OutputPath> SimulateOutputPaths(const Args& args, bool write_output,
                                            const std::string& out_dir,
                                            bool native, bool philly_traces) {
  std::vector<OutputPath> paths;
  if (write_output) {
    if (native) {
      for (const char* name : TraceWriter::kFileNames) {
        paths.push_back({"--out", out_dir + "/" + name});
      }
    }
    if (philly_traces) {
      for (const char* name : PhillyTracesExporter::kFileNames) {
        paths.push_back({"--out", out_dir + "/" + name});
      }
    }
    paths.push_back({"--out", out_dir + "/manifest.json"});
  }
  for (const char* flag : {"--events-out", "--telemetry-out", "--spans-out",
                           "--metrics-out", "--trace-out", "--spans-trace-out",
                           "--html"}) {
    if (std::string path = args.Get(flag, ""); !path.empty()) {
      paths.push_back({flag, std::move(path)});
    }
  }
  return paths;
}

// The manifest that lets a trace directory found on disk later be
// regenerated: seed, scale, and every knob that changes the simulation.
RunManifest ManifestFor(const Args& args, const ExperimentConfig& config,
                        const RunFlags& flags, bool write_output) {
  RunManifest manifest;
  manifest.tool = "phillyctl";
  manifest.command = write_output ? "simulate" : "report";
  manifest.seed = config.simulation.seed;
  manifest.days = flags.days;
  manifest.threads = 1;
  manifest.knobs["scheduler"] = config.simulation.scheduler.name;
  manifest.knobs["retry"] = args.Get("--retry", "fixed");
  manifest.knobs["format"] = args.Get("--format", "native");
  manifest.knobs["faults"] = args.Has("--faults") ? "on" : "off";
  // The checkpoint knobs were already validated by ApplyCheckpointOptions, so
  // the raw strings can be recorded verbatim.
  for (const char* knob : {"--checkpoint-mins", "--ckpt-policy", "--ckpt-bw",
                           "--ckpt-size-gb-per-gpu"}) {
    if (args.values.count(knob) > 0) {
      manifest.knobs[knob + 2] = args.Get(knob, "");  // strip the dashes
    }
  }
  for (const char* flag :
       {"--prerun", "--migration", "--dedicated", "--strict-locality"}) {
    if (args.Has(flag)) {
      manifest.knobs[flag + 2] = "on";  // strip the leading dashes
    }
  }
  return manifest;
}

int RunSimulateOrReport(const Args& args, bool write_output) {
  RunFlags flags;
  if (!ParseRunFlags(args, /*default_days=*/10, &flags)) {
    return 1;
  }
  ExperimentConfig config =
      ExperimentConfig::BenchScale(flags.days, static_cast<uint64_t>(flags.seed));
  if (!ApplySchedulerOptions(args, &config.simulation.scheduler)) {
    return 2;
  }
  if (const int rc = ApplyCheckpointOptions(args, &config.simulation.scheduler,
                                            &config.simulation.ckpt_io);
      rc != 0) {
    return rc;
  }
  if (args.Has("--faults")) {
    config.simulation.fault = FaultProcessConfig::Calibrated();
  }

  const std::string events_out = args.Get("--events-out", "");
  const std::string metrics_out = args.Get("--metrics-out", "");
  const std::string trace_out = args.Get("--trace-out", "");
  const std::string telemetry_out = args.Get("--telemetry-out", "");
  const std::string spans_out = args.Get("--spans-out", "");
  const std::string spans_trace_out = args.Get("--spans-trace-out", "");
  const std::string html_out = args.Get("--html", "");
  const std::string out_dir = args.Get("--out", "out/trace");
  const std::string format = args.Get("--format", "native");
  const bool native = format == "native" || format == "both";
  const bool philly_traces = format == "philly-traces" || format == "both";

  // Every output is checked and opened before the run, so a clash or an
  // unwritable path fails before any simulation work.
  if (!RejectSharedPaths(SimulateOutputPaths(args, write_output, out_dir,
                                             native, philly_traces))) {
    return 1;
  }
  if (write_output && !CreateOutputDirectory(out_dir)) {
    return 1;
  }
  std::unique_ptr<OutputFile> events_file;
  std::unique_ptr<OutputFile> metrics_file;
  std::unique_ptr<OutputFile> trace_file;
  std::unique_ptr<OutputFile> telemetry_file;
  std::unique_ptr<OutputFile> spans_file;
  std::unique_ptr<OutputFile> spans_trace_file;
  std::unique_ptr<OutputFile> html_file;
  std::unique_ptr<OutputFile> manifest_file;
  const auto open = [](const std::string& path, const char* what,
                       std::unique_ptr<OutputFile>* file) {
    return path.empty() || (*file = OpenOutput(path, what)) != nullptr;
  };
  if (!open(events_out, "event log", &events_file) ||
      !open(metrics_out, "metrics", &metrics_file) ||
      !open(trace_out, "phase trace", &trace_file) ||
      !open(telemetry_out, "telemetry", &telemetry_file) ||
      !open(spans_out, "span stream", &spans_file) ||
      !open(spans_trace_out, "span trace", &spans_trace_file) ||
      !open(html_out, "dashboard", &html_file) ||
      (write_output &&
       !open(out_dir + "/manifest.json", "manifest", &manifest_file))) {
    return 1;
  }

  // Observability sinks attach only when their output was requested: a run
  // without these flags keeps config.simulation.obs all-null and is
  // byte-identical to a run from before the sinks existed.
  EventLog event_log;
  MetricsRegistry metrics;
  TraceProfiler profiler;
  ClusterTimeSeries timeseries;
  SpanTracer spans;
  // The dashboard joins the telemetry and scheduler streams, so --html
  // implies both recorders even when their files were not asked for.
  if (!events_out.empty() || !html_out.empty()) {
    config.simulation.obs.event_log = &event_log;
  }
  if (!metrics_out.empty()) {
    config.simulation.obs.metrics = &metrics;
  }
  if (!trace_out.empty()) {
    config.simulation.obs.profiler = &profiler;
  }
  if (!telemetry_out.empty() || !html_out.empty()) {
    config.simulation.obs.timeseries = &timeseries;
  }
  // The span tracer attaches only on explicit request: with it attached the
  // telemetry stream grows per-VC blame columns, so quietly enabling it for
  // --html would change --telemetry-out bytes for users who never asked for
  // attribution.
  if (!spans_out.empty() || !spans_trace_out.empty()) {
    config.simulation.obs.spans = &spans;
  }
  // A stream goes to disk while the run produces it, unless something in
  // this process reads its records after the run: the dashboard reads
  // events, samples and spans, the span Chrome trace reads spans. Streamed,
  // a sink holds one batch of records instead of the whole run.
  if (html_out.empty()) {
    if (events_file != nullptr) {
      event_log.StreamTo(&events_file->stream());
    }
    if (telemetry_file != nullptr) {
      timeseries.StreamTo(&telemetry_file->stream());
    }
    if (spans_file != nullptr && spans_trace_out.empty()) {
      spans.log().StreamTo(&spans_file->stream());
    }
  }

  std::printf("simulating %d days (seed %d, scheduler %s)...\n", flags.days,
              flags.seed, config.simulation.scheduler.name.c_str());
  const ExperimentRun run = RunExperiment(config);
  std::printf("%lld jobs completed\n\n", static_cast<long long>(run.num_jobs));

  RunManifest manifest = ManifestFor(args, config, flags, write_output);
  if (write_output) {
    if (native) {
      if (!TraceWriter::WriteDirectory(run.result.jobs, out_dir)) {
        std::fprintf(stderr, "cannot write native trace to %s\n", out_dir.c_str());
        return 1;
      }
      manifest.outputs["trace"] = out_dir;
      std::printf("native trace written to %s/\n", out_dir.c_str());
    }
    if (philly_traces) {
      PhillyTracesExporter exporter(config.simulation.cluster);
      if (!exporter.WriteDirectory(run.result.jobs, out_dir)) {
        std::fprintf(stderr, "cannot write philly-traces files to %s\n",
                     out_dir.c_str());
        return 1;
      }
      manifest.outputs["philly-traces"] = out_dir;
      std::printf("philly-traces-format files written to %s/\n", out_dir.c_str());
    }
  }

  {
    // Scoped so the "analyze" slice closes before the trace file is written.
    ScopedTimer analyze_timer(config.simulation.obs.profiler, "analyze");
    PrintReport(run.result.jobs, &run.result);
    if (args.values.count("--figures") > 0) {
      ExportFigures(run.result.jobs, args.Get("--figures", "out/figures"));
    }
  }

  if (events_file != nullptr) {
    if (!FinishOutput(*events_file, "event log", "events", &manifest,
                      [&](std::ostream& out) { event_log.WriteNdjson(out); })) {
      return 1;
    }
    std::printf("%zu scheduler events written to %s\n", event_log.size(),
                events_out.c_str());
  }
  if (metrics_file != nullptr) {
    if (!FinishOutput(*metrics_file, "metrics", "metrics", &manifest,
                      [&](std::ostream& out) { metrics.WriteJson(out); })) {
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (trace_file != nullptr) {
    if (!FinishOutput(*trace_file, "phase trace", "phase-trace", &manifest,
                      [&](std::ostream& out) { profiler.WriteChromeTrace(out); })) {
      return 1;
    }
    std::printf("%zu phase slices written to %s (open in ui.perfetto.dev)\n",
                profiler.size(), trace_out.c_str());
  }
  if (telemetry_file != nullptr) {
    // The embedded digest carries both halves of the cross-check: exact
    // aggregates over the sample lines, and the Table 3 utilization
    // aggregates derived from the native job records.
    const TelemetryDigest digest =
        TelemetryStreamDigest(timeseries, run.result.jobs);
    if (!FinishOutput(*telemetry_file, "telemetry", "telemetry", &manifest,
                      [&](std::ostream& out) {
                        timeseries.WriteNdjson(out, &digest);
                      })) {
      return 1;
    }
    std::printf("%zu telemetry samples written to %s\n", timeseries.size(),
                telemetry_out.c_str());
  }
  if (spans_file != nullptr) {
    if (!FinishOutput(*spans_file, "span stream", "spans", &manifest,
                      [&](std::ostream& out) { spans.log().WriteNdjson(out); })) {
      return 1;
    }
    std::printf("%zu causal spans written to %s\n", spans.log().size(),
                spans_out.c_str());
  }
  if (spans_trace_file != nullptr) {
    if (!FinishOutput(*spans_trace_file, "span trace", "spans-trace", &manifest,
                      [&](std::ostream& out) {
                        WriteSpanChromeTrace(out, spans.log().spans());
                      })) {
      return 1;
    }
    std::printf("span trace written to %s (open in ui.perfetto.dev)\n",
                spans_trace_out.c_str());
  }
  if (html_file != nullptr) {
    HtmlDashboardInput dashboard;
    dashboard.title = "philly " + config.simulation.scheduler.name + " seed " +
                      std::to_string(config.simulation.seed) + ", " +
                      std::to_string(flags.days) + " days";
    dashboard.samples = &timeseries.samples();
    dashboard.events = &event_log.events();
    dashboard.jobs = &run.result.jobs;
    if (config.simulation.obs.spans != nullptr) {
      dashboard.spans = &spans.log().spans();
    }
    if (!FinishOutput(*html_file, "dashboard", "dashboard", &manifest,
                      [&](std::ostream& out) {
                        out << RenderHtmlDashboard(dashboard);
                      })) {
      return 1;
    }
    std::printf("dashboard written to %s\n", html_out.c_str());
  }
  if (manifest_file != nullptr) {
    manifest.WriteJson(manifest_file->stream());
    if (!manifest_file->Commit()) {
      std::fprintf(stderr, "cannot write %s\n", manifest_file->path().c_str());
      return 1;
    }
    std::printf("manifest written to %s\n", manifest_file->path().c_str());
  }
  return 0;
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
  const std::string path = args.Get("--from-events", "");
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
  PrintEventReport(joined);

  const std::string spans_path = args.Get("--spans", "");
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

  const std::string dir = args.Get("--trace", "");
  if (!dir.empty()) {
    std::ifstream jobs_csv(dir + "/jobs.csv");
    std::ifstream attempts_csv(dir + "/attempts.csv");
    std::ifstream util_csv(dir + "/gpu_util.csv");
    std::ifstream stdout_log(dir + "/stdout.log");
    if (!jobs_csv || !attempts_csv || !util_csv || !stdout_log) {
      std::fprintf(stderr, "cannot open native trace files under %s\n",
                   dir.c_str());
      return 1;
    }
    const auto native =
        TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
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
  const std::string path = args.Get("--telemetry", "");
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

  const std::string dir = args.Get("--trace", "");
  if (!dir.empty()) {
    std::ifstream jobs_csv(dir + "/jobs.csv");
    std::ifstream attempts_csv(dir + "/attempts.csv");
    std::ifstream util_csv(dir + "/gpu_util.csv");
    std::ifstream stdout_log(dir + "/stdout.log");
    if (!jobs_csv || !attempts_csv || !util_csv || !stdout_log) {
      std::fprintf(stderr, "cannot open native trace files under %s\n",
                   dir.c_str());
      return 1;
    }
    const auto native =
        TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
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

int RunAnalyze(const Args& args) {
  if (args.values.count("--telemetry") > 0) {
    return RunAnalyzeTelemetry(args);
  }
  if (args.values.count("--from-events") > 0) {
    return RunAnalyzeFromEvents(args);
  }
  const std::string dir = args.Get("--trace", "");
  if (dir.empty()) {
    std::fprintf(stderr, "analyze requires --trace DIR\n");
    return 2;
  }
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
    const auto jobs = importer.ImportJobLog(buffer.str(), &error);
    if (!error.empty()) {
      std::fprintf(stderr, "failed to parse cluster_job_log: %s\n", error.c_str());
      return 1;
    }
    std::printf("imported %zu jobs (%d VCs, %d users, %d machines) from %s\n\n",
                jobs.size(), importer.num_vcs(), importer.num_users(),
                importer.num_machines(), dir.c_str());
    PrintReport(jobs, nullptr);
    if (args.values.count("--figures") > 0) {
      ExportFigures(jobs, args.Get("--figures", "out/figures"));
    }
    return 0;
  }
  std::ifstream jobs_csv(dir + "/jobs.csv");
  std::ifstream attempts_csv(dir + "/attempts.csv");
  std::ifstream util_csv(dir + "/gpu_util.csv");
  std::ifstream stdout_log(dir + "/stdout.log");
  if (!jobs_csv || !attempts_csv || !util_csv || !stdout_log) {
    std::fprintf(stderr, "cannot open native trace files under %s\n", dir.c_str());
    return 1;
  }
  const auto jobs =
      TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
  const ValidationReport validation = ValidateJobs(jobs);
  if (!validation.ok()) {
    std::fprintf(stderr, "trace failed validation: %s\n",
                 validation.Summary().c_str());
    return 1;
  }
  std::printf("loaded and validated %zu jobs from %s\n\n", jobs.size(),
              dir.c_str());
  PrintReport(jobs, nullptr);
  if (args.values.count("--figures") > 0) {
    ExportFigures(jobs, args.Get("--figures", "out/figures"));
  }
  return 0;
}

// Reads the comma list flag `key` (`fallback` when absent) into *out. An
// empty entry ("a,,b", a stray comma, or an empty value) prints a message
// naming the flag and returns false.
bool GetListFlag(const Args& args, const std::string& key,
                 const std::string& fallback, std::vector<std::string>* out) {
  const std::string list = args.Get(key, fallback);
  for (const std::string_view entry : Split(list, ',')) {
    if (entry.empty()) {
      std::fprintf(stderr, "%s '%s' has an empty entry\n", key.c_str(),
                   list.c_str());
      return false;
    }
    out->emplace_back(entry);
  }
  return true;
}

// Runs the schedulers x retry-policies x seeds cross product through the
// experiment pool and prints one summary row per run. Rows come out in
// (scheduler, retry, seed) order no matter how many worker threads execute
// the simulations.
int RunSweep(const Args& args) {
  RunFlags flags;
  if (!ParseRunFlags(args, /*default_days=*/10, &flags)) {
    return 1;
  }
  std::vector<std::string> seed_texts;
  std::vector<std::string> scheduler_names;
  // Third sweep dimension: retry policies. Defaults to the single --retry
  // value so `sweep --retry adaptive` keeps working unchanged.
  std::vector<std::string> retry_names;
  const char* retries_flag = args.values.count("--retries") > 0 ? "--retries" : "--retry";
  if (!GetListFlag(args, "--seeds", "42", &seed_texts) ||
      !GetListFlag(args, "--schedulers", "philly", &scheduler_names) ||
      !GetListFlag(args, retries_flag, "fixed", &retry_names)) {
    return 2;
  }
  // Each entry takes simulate's --seed range, so any swept run can be
  // reproduced alone with `simulate --seed`.
  std::vector<uint64_t> seeds;
  for (const std::string& text : seed_texts) {
    long value = 0;
    if (!ParseStrictLong(text, &value) || value < 0 || value > INT_MAX) {
      std::fprintf(stderr,
                   "--seeds entry '%s' is invalid: expected an integer seed "
                   "between 0 and 2147483647\n",
                   text.c_str());
      return 2;
    }
    seeds.push_back(static_cast<uint64_t>(value));
  }

  const int days = flags.days;
  std::vector<ExperimentConfig> configs;
  for (const std::string& name : scheduler_names) {
    SchedulerConfig sched;
    CheckpointIoConfig ckpt_io;
    if (!SchedulerByName(name, &sched) ||
        !ApplyCommonSchedulerOptions(args, &sched)) {
      return 2;
    }
    if (const int rc = ApplyCheckpointOptions(args, &sched, &ckpt_io);
        rc != 0) {
      return rc;
    }
    for (const std::string& retry : retry_names) {
      SchedulerConfig variant = sched;
      if (!RetryByName(retry, &variant.retry_policy)) {
        return 2;
      }
      for (const uint64_t seed : seeds) {
        ExperimentConfig config = ExperimentConfig::BenchScale(days, seed);
        config.simulation.scheduler = variant;
        config.simulation.ckpt_io = ckpt_io;
        if (args.Has("--faults")) {
          config.simulation.fault = FaultProcessConfig::Calibrated();
        }
        configs.push_back(std::move(config));
      }
    }
  }

  const ExperimentPool pool(flags.threads);
  std::printf("sweeping %zu scheduler(s) x %zu retry policy(ies) x %zu "
              "seed(s) over %d days on %d worker thread(s)...\n\n",
              scheduler_names.size(), retry_names.size(), seeds.size(), days,
              pool.num_threads());
  const std::vector<ExperimentRun> runs = pool.RunMany(std::move(configs));

  TextTable table({"scheduler", "retry", "seed", "jobs", "passed %",
                   "mean queue (min)", "mean util (%)", "preemptions"});
  for (size_t s = 0; s < scheduler_names.size(); ++s) {
    for (size_t r = 0; r < retry_names.size(); ++r) {
      for (size_t k = 0; k < seeds.size(); ++k) {
        const ExperimentRun& run =
            runs[(s * retry_names.size() + r) * seeds.size() + k];
        const auto status = AnalyzeStatus(run.result.jobs);
        double queue_sum = 0.0;
        for (const auto& job : run.result.jobs) {
          queue_sum += ToMinutes(job.InitialQueueDelay());
        }
        const double mean_queue =
            run.result.jobs.empty()
                ? 0.0
                : queue_sum / static_cast<double>(run.result.jobs.size());
        table.AddRow({scheduler_names[s], retry_names[r], std::to_string(seeds[k]),
                      std::to_string(run.num_jobs),
                      FormatPercent(status.by_status[0].count_share, 1),
                      FormatDouble(mean_queue, 2),
                      FormatDouble(AnalyzeUtilization(run.result.jobs).all.Mean(), 1),
                      std::to_string(run.result.preemptions)});
      }
    }
  }
  std::printf("%s\n", table.Render().c_str());
  return 0;
}

// p95 of initial queueing delay, in minutes (what bench/fleet_router and the
// fleet summary table report).
double P95QueueDelayMinutes(const std::vector<JobRecord>& jobs) {
  std::vector<double> delays;
  delays.reserve(jobs.size());
  for (const JobRecord& job : jobs) {
    delays.push_back(ToMinutes(job.InitialQueueDelay()));
  }
  if (delays.empty()) {
    return 0.0;
  }
  std::sort(delays.begin(), delays.end());
  const size_t index = static_cast<size_t>(
      0.95 * static_cast<double>(delays.size() - 1) + 0.5);
  return delays[std::min(index, delays.size() - 1)];
}

// Every file a fleet run writes: the route stream, each member's streams and
// the manifest under --out, and the --html dashboard.
std::vector<OutputPath> FleetOutputPaths(const FleetConfig& config,
                                         const std::string& out_dir,
                                         const std::string& html_out) {
  std::vector<OutputPath> paths;
  if (!out_dir.empty()) {
    paths.push_back({"--out", out_dir + "/fleet_events.ndjson"});
    for (const FleetClusterSpec& cluster : config.clusters) {
      for (const char* stream :
           {".events.ndjson", ".telemetry.ndjson", ".spans.ndjson"}) {
        paths.push_back({"--out", out_dir + "/" + cluster.name + stream});
      }
    }
    paths.push_back({"--out", out_dir + "/manifest.json"});
  }
  if (!html_out.empty()) {
    paths.push_back({"--html", html_out});
  }
  return paths;
}

// `fleet`: run N clusters behind the front-door router and summarize routing,
// queueing, and the fleet GPU-time ledger. All three fleet knobs are strictly
// validated: a malformed --clusters/--router/--spill-threshold exits 1 with a
// clear message and never silently defaults.
int RunFleet(const Args& args) {
  RunFlags flags;
  if (!ParseRunFlags(args, /*default_days=*/3, &flags)) {
    return 1;
  }
  const std::string clusters_spec = args.Get("--clusters", "3");
  std::vector<ClusterConfig> cluster_configs;
  std::string error;
  if (!ParseClustersSpec(clusters_spec, &cluster_configs, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const std::string router_name = args.Get("--router", "pinned");
  RouterConfig router;
  if (!RouterPolicyFromString(router_name, &router.policy)) {
    std::fprintf(stderr,
                 "--router '%s' is invalid: expected pinned, least-loaded, or "
                 "spillover\n",
                 router_name.c_str());
    return 1;
  }
  if (args.values.count("--spill-threshold") > 0) {
    if (router.policy != RouterPolicy::kSpillover) {
      std::fprintf(stderr,
                   "--spill-threshold only applies to --router spillover\n");
      return 1;
    }
    const std::string text = args.Get("--spill-threshold", "");
    long threshold = 0;
    if (!ParseStrictLong(text, &threshold) || threshold < 0) {
      std::fprintf(stderr,
                   "--spill-threshold '%s' is invalid: expected a non-negative "
                   "home queue depth\n",
                   text.c_str());
      return 1;
    }
    router.spill_threshold = threshold;
  }

  const int days = flags.days;
  const uint64_t seed = static_cast<uint64_t>(flags.seed);
  const bool collect_spans = args.Has("--collect-spans");
  FleetConfig config;
  config.router = router;
  config.collect_events = true;
  config.collect_telemetry = true;
  config.collect_spans = collect_spans;
  config.threads = flags.threads;
  for (size_t i = 0; i < cluster_configs.size(); ++i) {
    config.clusters.push_back(
        {"cluster" + std::to_string(i),
         FleetClusterExperiment(cluster_configs[i], days, seed,
                                static_cast<int>(i))});
  }

  // The fleet keeps every stream in memory (its dashboard reads them all) and
  // writes them after the run, but a clash between outputs or an unusable
  // --out or --html path still fails before the run.
  const std::string out_dir = args.Get("--out", "");
  const std::string html_out = args.Get("--html", "");
  if (!RejectSharedPaths(FleetOutputPaths(config, out_dir, html_out)) ||
      (!out_dir.empty() && !CreateOutputDirectory(out_dir))) {
    return 1;
  }
  std::unique_ptr<OutputFile> html_file;
  if (!html_out.empty() &&
      (html_file = OpenOutput(html_out, "dashboard")) == nullptr) {
    return 1;
  }

  std::printf("simulating a %zu-cluster fleet for %d days (seed %llu, router "
              "%s)...\n",
              config.clusters.size(), days,
              static_cast<unsigned long long>(seed), router_name.c_str());
  FleetSimulation fleet(std::move(config));
  const FleetResult result = fleet.Run();
  std::printf("%lld jobs routed (%lld off their home cluster)\n\n",
              static_cast<long long>(result.total_jobs),
              static_cast<long long>(result.spilled_jobs));

  FleetDashboardSection section;
  section.router = router_name;
  section.total_jobs = result.total_jobs;
  section.spilled_jobs = result.spilled_jobs;
  TextTable table({"cluster", "GPUs", "jobs", "home", "in", "away",
                   "mean occ %", "p95 queue (min)"});
  for (size_t i = 0; i < result.clusters.size(); ++i) {
    const FleetClusterResult& cluster = result.clusters[i];
    double occupancy_sum = 0.0;
    for (const TelemetrySample& s : cluster.telemetry.samples()) {
      occupancy_sum += s.occupancy;
    }
    const double mean_occ =
        cluster.telemetry.samples().empty()
            ? 0.0
            : occupancy_sum /
                  static_cast<double>(cluster.telemetry.samples().size());
    const double p95 = P95QueueDelayMinutes(cluster.result.jobs);
    const int gpus = cluster_configs[i].TotalGpus();
    table.AddRow({cluster.name, std::to_string(gpus),
                  std::to_string(cluster.num_jobs),
                  std::to_string(cluster.home_jobs),
                  std::to_string(cluster.routed_in),
                  std::to_string(cluster.routed_away),
                  FormatDouble(mean_occ * 100.0, 1), FormatDouble(p95, 2)});
    section.clusters.push_back({cluster.name, gpus, cluster.num_jobs,
                                cluster.home_jobs, cluster.routed_in,
                                cluster.routed_away, mean_occ, p95});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("fleet GPU-time ledger: %.1f allocated GPU-hours = %.1f useful "
              "+ %.1f fault-lost + %.1f ckpt-overhead + %.1f ckpt-stall\n",
              result.allocated_gpu_seconds / 3600.0,
              result.useful_gpu_seconds / 3600.0,
              result.machine_fault_lost_gpu_seconds / 3600.0,
              result.ckpt_overhead_gpu_seconds / 3600.0,
              result.ckpt_stall_gpu_seconds / 3600.0);

  RunManifest manifest;
  manifest.tool = "phillyctl";
  manifest.command = "fleet";
  manifest.seed = seed;
  manifest.days = days;
  manifest.threads = flags.threads;
  manifest.knobs["clusters"] = clusters_spec;
  manifest.knobs["router"] = router_name;
  if (router.policy == RouterPolicy::kSpillover) {
    manifest.knobs["spill-threshold"] = std::to_string(router.spill_threshold);
  }
  if (collect_spans) {
    manifest.knobs["collect-spans"] = "on";
  }

  if (!out_dir.empty()) {
    if (!WriteObsFile(out_dir + "/fleet_events.ndjson", "fleet route stream",
                      "fleet-events", &manifest, [&](std::ostream& out) {
                        result.route_events.WriteNdjson(out);
                      })) {
      return 1;
    }
    for (size_t i = 0; i < result.clusters.size(); ++i) {
      const FleetClusterResult& cluster = result.clusters[i];
      const std::string base = out_dir + "/" + cluster.name;
      if (!WriteObsFile(base + ".events.ndjson", "event log",
                        cluster.name + "-events", &manifest,
                        [&](std::ostream& out) {
                          cluster.events.WriteNdjson(out);
                        })) {
        return 1;
      }
      // Same embedded digest the simulate path writes, so each per-cluster
      // stream verifies under `analyze --telemetry` on its own.
      const TelemetryDigest digest =
          TelemetryStreamDigest(cluster.telemetry, cluster.result.jobs);
      if (!WriteObsFile(base + ".telemetry.ndjson", "telemetry",
                        cluster.name + "-telemetry", &manifest,
                        [&](std::ostream& out) {
                          cluster.telemetry.WriteNdjson(out, &digest);
                        })) {
        return 1;
      }
      if (collect_spans) {
        if (!WriteObsFile(base + ".spans.ndjson", "span stream",
                          cluster.name + "-spans", &manifest,
                          [&](std::ostream& out) {
                            cluster.spans.log().WriteNdjson(out);
                          })) {
          return 1;
        }
      }
    }
    std::printf("fleet streams written to %s/\n", out_dir.c_str());
  }

  if (html_file != nullptr) {
    // Fleet-wide inputs: concatenated streams (rollup-of-concatenation equals
    // the merged fleet rollup) plus the routing section.
    std::vector<TelemetrySample> all_samples;
    std::vector<SchedEvent> all_events;
    std::vector<JobRecord> all_jobs;
    std::vector<SpanRecord> all_spans;
    for (const FleetClusterResult& cluster : result.clusters) {
      all_samples.insert(all_samples.end(), cluster.telemetry.samples().begin(),
                         cluster.telemetry.samples().end());
      all_events.insert(all_events.end(), cluster.events.events().begin(),
                        cluster.events.events().end());
      all_jobs.insert(all_jobs.end(), cluster.result.jobs.begin(),
                      cluster.result.jobs.end());
      all_spans.insert(all_spans.end(), cluster.spans.log().spans().begin(),
                       cluster.spans.log().spans().end());
    }
    all_events.insert(all_events.end(), result.route_events.events().begin(),
                      result.route_events.events().end());
    HtmlDashboardInput dashboard;
    dashboard.title = "philly fleet (" + router_name + ") seed " +
                      std::to_string(seed) + ", " + std::to_string(days) +
                      " days";
    dashboard.samples = &all_samples;
    dashboard.events = &all_events;
    dashboard.jobs = &all_jobs;
    if (collect_spans) {
      dashboard.spans = &all_spans;
    }
    dashboard.fleet = &section;
    if (!FinishOutput(*html_file, "dashboard", "dashboard", &manifest,
                      [&](std::ostream& out) {
                        out << RenderHtmlDashboard(dashboard);
                      })) {
      return 1;
    }
    std::printf("fleet dashboard written to %s\n", html_out.c_str());
  }

  if (!out_dir.empty()) {
    const std::string manifest_path = out_dir + "/manifest.json";
    if (!manifest.WriteFile(manifest_path)) {
      std::fprintf(stderr, "cannot write %s\n", manifest_path.c_str());
      return 1;
    }
    std::printf("manifest written to %s\n", manifest_path.c_str());
  }
  return 0;
}

// `explain --job ID --spans FILE`: reconstruct one job's causal timeline from
// the span stream alone. Both inputs are strictly validated — a malformed job
// id, an unreadable or unparseable stream, or a job with no spans all exit 1
// with a message naming exactly what was wrong.
int RunExplain(const Args& args) {
  if (args.values.count("--job") == 0) {
    std::fprintf(stderr, "explain requires --job ID\n");
    return 1;
  }
  const std::string job_text = args.Get("--job", "");
  long job_id = 0;
  if (!ParseStrictLong(job_text, &job_id) || job_id <= 0) {
    std::fprintf(stderr,
                 "--job '%s' is invalid: expected a positive integer job id\n",
                 job_text.c_str());
    return 1;
  }
  if (args.values.count("--spans") == 0) {
    std::fprintf(stderr, "explain requires --spans FILE\n");
    return 1;
  }
  const std::string path = args.Get("--spans", "");
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
  const std::string timeline =
      RenderJobExplanation(static_cast<JobId>(job_id), spans);
  if (timeline.empty()) {
    std::fprintf(stderr, "no spans for job %ld in %s (%zu spans read)\n",
                 job_id, path.c_str(), spans.size());
    return 1;
  }
  std::printf("%s", timeline.c_str());
  return 0;
}

// A subcommand: what runs it, and the options it reads (flags that take a
// value, and switches).
struct Command {
  int (*run)(const Args&);
  std::set<std::string> values;
  std::set<std::string> switches;
};

const std::map<std::string, Command>& Commands() {
  static const std::map<std::string, Command> commands = [] {
    // Run scale (sweep takes --seeds instead of --seed), and the scheduler
    // knobs and switches of every single-cluster simulating command.
    const std::set<std::string> run = {"--days", "--seed"};
    const std::set<std::string> knobs = {"--retry", "--checkpoint-mins", "--ckpt-policy",
                                         "--ckpt-bw", "--ckpt-size-gb-per-gpu"};
    const std::set<std::string> switches = {"--prerun", "--migration", "--dedicated",
                                            "--strict-locality", "--faults"};
    const auto with = [](std::set<std::string> a, std::set<std::string> b) {
      a.merge(b);
      return a;
    };
    const std::set<std::string> report =
        with(with(run, knobs), {"--scheduler", "--figures", "--events-out", "--metrics-out",
                                "--trace-out", "--telemetry-out", "--spans-out",
                                "--spans-trace-out", "--html"});
    return std::map<std::string, Command>{
        {"simulate",
         {[](const Args& args) { return RunSimulateOrReport(args, /*write_output=*/true); },
          with(report, {"--out", "--format"}), switches}},
        {"report",
         {[](const Args& args) { return RunSimulateOrReport(args, /*write_output=*/false); },
          report, switches}},
        {"analyze",
         {RunAnalyze,
          {"--trace", "--figures", "--from-events", "--telemetry", "--spans"},
          {"--philly-traces"}}},
        {"sweep",
         {RunSweep,
          with(knobs, {"--days", "--threads", "--seeds", "--schedulers", "--retries"}),
          switches}},
        {"fleet",
         {RunFleet,
          with(run, {"--threads", "--clusters", "--router", "--spill-threshold", "--out",
                     "--html"}),
          {"--collect-spans"}}},
        {"explain", {RunExplain, {"--job", "--spans"}, {}}},
    };
  }();
  return commands;
}

// Parses argv against the subcommand's options. An unknown subcommand prints
// the usage; an unknown option, a value flag with no value, or a positional
// argument prints what and where. Either returns false.
bool Parse(int argc, char** argv, Args* args) {
  if (argc < 2 || Commands().count(argv[1]) == 0) {
    Usage();
    return false;
  }
  args->command = argv[1];
  const Command& command = Commands().at(args->command);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* problem = nullptr;
    if (command.values.count(arg) > 0) {
      if (i + 1 < argc) {
        args->values[arg] = argv[++i];
        continue;
      }
      problem = "needs a value";
    } else if (command.switches.count(arg) > 0) {
      args->flags[arg] = true;
      continue;
    } else {
      problem = arg.starts_with("-") ? "is not an option of this command"
                                     : "is an unexpected argument";
    }
    std::fprintf(stderr, "phillyctl %s: '%s' %s\n", args->command.c_str(), arg.c_str(), problem);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace philly

int main(int argc, char** argv) {
  philly::Args args;
  if (!philly::Parse(argc, argv, &args)) {
    return 2;
  }
  return philly::Commands().at(args.command).run(args);
}
