// phillybench_replay: the traced half of the phillysim benchmark.
//
// Replays each benchmark workload in-process through the same public library
// calls tools/phillyctl.cc makes, timing every call from the outside, and
// prints the per-layer ledger as one JSON object. Nothing in src/ is
// instrumented; the only sink attached beyond what the workload itself uses
// is the existing TraceProfiler, which splits ClusterSimulation::Run into
// scheduling passes and the rest.
//
//   phillybench_replay build-info
//   phillybench_replay setup --workload W --seed S
//       Times the work done before the first simulated event, kSetupReps
//       times, and prints every sample: WorkloadGenerator::Generate plus the
//       ClusterSimulation constructor (for the fleet, the generation of every
//       member). Two clock reads per repetition, no profiler attached.
//   phillybench_replay trace --workload W --seed S
//       Replays the workload's main command and, where it has them, its
//       verification commands, writing the same relative paths phillyctl
//       writes, so every file of the replay must be byte-identical to the
//       untraced phillyctl run's (metrics.json excepted: it records the
//       simulator's own wall time).
//   phillybench_replay plain --workload W --seed S
//       Replays the main command only, with no profiler attached, so its
//       memory high-water marks and Run time are the program's own and not
//       the profiler's.
//
// The workload definitions mirror the command lines in phillybench/run.py;
// the byte comparison run.py makes is what keeps the two in step.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sha256.h"
#include "src/core/analysis.h"
#include "src/core/event_join.h"
#include "src/core/experiment.h"
#include "src/core/html_report.h"
#include "src/core/span_analysis.h"
#include "src/fleet/fleet.h"
#include "src/obs/event_log.h"
#include "src/obs/manifest.h"
#include "src/obs/metrics.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_profiler.h"
#include "src/trace/trace_io.h"

namespace philly {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kOut[] = "out";
constexpr char kFleetClusters[] = "12x16x8,8x12x8,6x8x8,4x8x4";
constexpr int kFleetDays = 40;
// Mirrored by FLEET_THREADS in run.py. One pool thread runs the members one
// after another, so the fleet's peak memory does not depend on how their
// runs overlap.
constexpr int kFleetThreads = 1;
constexpr int kSetupReps = 3;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Peak resident set size of this process so far (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Accumulated seconds per timed call plus plain values, keyed by metric name.
class Ledger {
 public:
  template <typename Fn>
  void Time(const std::string& name, Fn&& fn) {
    const auto start = Clock::now();
    fn();
    const double seconds = SecondsSince(start);
    values_[name] += seconds;
    timed_s_ += seconds;
  }
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double value) { values_[name] += value; }
  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  double timed_s() const { return timed_s_; }

  void Print() const {
    std::printf("{");
    bool first = true;
    for (const auto& [name, value] : values_) {
      std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
      first = false;
    }
    std::printf("}\n");
  }

 private:
  std::map<std::string, double> values_;
  double timed_s_ = 0.0;
};

struct Options {
  std::string workload;
  uint64_t seed = 42;
  // The trace command: attach the TraceProfiler, which splits Run into
  // scheduling passes and the rest, and replay the verification commands.
  bool traced = false;
};

bool IsSimulateWorkload(const std::string& name) {
  return name == "paper75" || name == "paper75-observed" || name == "year365-faults";
}

// `phillyctl simulate` for the three single-cluster workloads, configured as
// RunSimulateOrReport configures it.
ExperimentConfig SimulateConfig(const Options& options) {
  const bool year = options.workload == "year365-faults";
  ExperimentConfig config = ExperimentConfig::BenchScale(year ? 365 : 75, options.seed);
  SchedulerConfig& sched = config.simulation.scheduler;
  sched.retry_policy = SchedulerConfig::RetryPolicyKind::kFixed;
  sched.enable_prerun_pool = false;
  sched.enable_migration = false;
  if (year) {
    sched.checkpoint_period = Minutes(60);
    sched.checkpoint_policy = CheckpointPolicy::kCooperativeStagger;
    config.simulation.ckpt_io.rack_bandwidth_gbps = 2.0;
    config.simulation.fault = FaultProcessConfig::Calibrated();
  }
  return config;
}

// The sinks `phillyctl simulate` attaches for the workload's output flags.
struct Sinks {
  EventLog events;
  MetricsRegistry metrics;
  ClusterTimeSeries timeseries;
  SpanTracer spans;

  void Attach(const Options& options, ObservabilityConfig* obs) {
    if (options.workload == "paper75-observed") {
      obs->event_log = &events;
      obs->metrics = &metrics;
      obs->timeseries = &timeseries;
      obs->spans = &spans;
    }
  }
};

std::vector<ClusterConfig> FleetClusters() {
  std::vector<ClusterConfig> clusters;
  std::string error;
  if (!ParseClustersSpec(kFleetClusters, &clusters, &error)) {
    std::fprintf(stderr, "bad fleet spec: %s\n", error.c_str());
    std::exit(2);
  }
  return clusters;
}

ExperimentConfig FleetMember(const std::vector<ClusterConfig>& clusters, size_t i,
                             uint64_t seed) {
  return FleetClusterExperiment(clusters[i], kFleetDays, seed, static_cast<int>(i));
}

int RunSetup(const Options& options) {
  std::vector<double> samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!IsSimulateWorkload(options.workload)) {
      const std::vector<ClusterConfig> clusters = FleetClusters();
      const auto start = Clock::now();
      for (size_t i = 0; i < clusters.size(); ++i) {
        WorkloadGenerator(FleetMember(clusters, i, options.seed).workload).Generate();
      }
      samples.push_back(SecondsSince(start));
      continue;
    }
    ExperimentConfig config = SimulateConfig(options);
    Sinks sinks;
    sinks.Attach(options, &config.simulation.obs);
    const auto start = Clock::now();
    std::vector<JobSpec> jobs = WorkloadGenerator(config.workload).Generate();
    ClusterSimulation sim(config.simulation, std::move(jobs));
    samples.push_back(SecondsSince(start));
  }
  std::printf("{\"setup_s\": [");
  for (size_t i = 0; i < samples.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", samples[i]);
  }
  std::printf("]}\n");
  return 0;
}

// Serializes, writes, and digests one stream the way phillyctl's WriteObsFile
// does: encoding is timed under `encode_metric`, the file write plus the
// manifest's SHA-256 under obs.digest_write_s.
template <typename WriteFn>
bool WriteStream(Ledger& ledger, const std::string& path, const std::string& sink,
                 const std::string& encode_metric, RunManifest* manifest, WriteFn write) {
  std::ostringstream buffer;
  ledger.Time(encode_metric, [&] { write(buffer); });
  const std::string bytes = buffer.str();
  bool ok = false;
  ledger.Time("obs.digest_write_s", [&] {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ok = out.good();
    manifest->outputs[sink] = path;
    manifest->digests[sink] = Sha256Hex(bytes);
  });
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  return ok;
}

// The analyses PrintReport runs, one ledger row each.
void TimeReport(Ledger& ledger, const std::vector<JobRecord>& jobs,
                const SimulationResult* sim) {
  ledger.Time("core.status_s", [&] { AnalyzeStatus(jobs); });
  ledger.Time("core.runtimes_s", [&] { AnalyzeRunTimes(jobs); });
  ledger.Time("core.queue_delays_s", [&] { AnalyzeQueueDelays(jobs); });
  ledger.Time("core.delay_causes_s", [&] { AnalyzeDelayCauses(jobs, sim); });
  ledger.Time("core.utilization_s", [&] { AnalyzeUtilization(jobs); });
  ledger.Time("core.failures_s", [&] { AnalyzeFailures(jobs); });
}

// The subset PrintEventReport runs over event-joined records.
void TimeEventReport(Ledger& ledger, const SimulationResult& joined) {
  ledger.Time("core.status_s", [&] { AnalyzeStatus(joined.jobs); });
  ledger.Time("core.runtimes_s", [&] { AnalyzeRunTimes(joined.jobs); });
  ledger.Time("core.queue_delays_s", [&] { AnalyzeQueueDelays(joined.jobs); });
  ledger.Time("core.delay_causes_s", [&] { AnalyzeDelayCauses(joined.jobs, &joined); });
}

std::vector<JobRecord> ReadNativeTrace(Ledger& ledger, const std::string& dir) {
  std::vector<JobRecord> jobs;
  ledger.Time("trace.read_s", [&] {
    std::ifstream jobs_csv(dir + "/jobs.csv");
    std::ifstream attempts_csv(dir + "/attempts.csv");
    std::ifstream util_csv(dir + "/gpu_util.csv");
    std::ifstream stdout_log(dir + "/stdout.log");
    jobs = TraceReader::ReadJobs(jobs_csv, attempts_csv, util_csv, stdout_log);
  });
  return jobs;
}

// Equality of event-joined and native records over the fields phillyctl's
// CrossCheckAgainstTrace compares.
bool JoinedMatchesTrace(const std::vector<JobRecord>& joined,
                        const std::vector<JobRecord>& native) {
  if (joined.size() != native.size()) {
    return false;
  }
  std::map<JobId, const JobRecord*> by_id;
  for (const JobRecord& job : native) {
    by_id[job.spec.id] = &job;
  }
  for (const JobRecord& job : joined) {
    const auto it = by_id.find(job.spec.id);
    if (it == by_id.end()) {
      return false;
    }
    const JobRecord& ref = *it->second;
    if (job.spec.vc != ref.spec.vc || job.spec.num_gpus != ref.spec.num_gpus ||
        job.spec.submit_time != ref.spec.submit_time ||
        job.InitialQueueDelay() != ref.InitialQueueDelay() ||
        job.attempts.size() != ref.attempts.size() || job.status != ref.status ||
        job.finish_time != ref.finish_time) {
      return false;
    }
  }
  return true;
}

double FileBytes(const std::string& dir, const std::vector<std::string>& names) {
  double bytes = 0.0;
  for (const std::string& name : names) {
    bytes += static_cast<double>(std::filesystem::file_size(dir + "/" + name));
  }
  return bytes;
}

void AddRunCounters(Ledger& ledger, const SimulationResult& r) {
  ledger.Add("sim.events", static_cast<double>(r.sim_events_processed));
  ledger.Add("sched.decisions", static_cast<double>(r.scheduling_decisions));
  ledger.Add("sched.preemptions", static_cast<double>(r.preemptions));
  ledger.Add("sched.locality_relaxations", static_cast<double>(r.locality_relaxations));
  ledger.Add("sched.backoffs", static_cast<double>(r.sched_backoffs));
  ledger.Add("fault.injected", static_cast<double>(r.machine_faults_injected));
  ledger.Add("fault.kills", static_cast<double>(r.machine_fault_kills));
  ledger.Add("fault.ckpt_writes", static_cast<double>(r.ckpt_writes_started));
  ledger.Add("fault.ckpt_stall_gpu_h", r.ckpt_stall_gpu_seconds / 3600.0);
}

// Fills the job-derived half of a telemetry digest, as phillyctl does before
// writing a telemetry stream.
void AddUtilDigest(Ledger& ledger, const std::vector<JobRecord>& jobs,
                   TelemetryDigest* digest) {
  TelemetryDigest jobs_half;
  ledger.Time("core.util_digest_s", [&] { jobs_half = ComputeUtilDigest(jobs); });
  digest->jobs = jobs_half.jobs;
  digest->segments = jobs_half.segments;
  digest->util_weight = jobs_half.util_weight;
  digest->util_weighted_sum = jobs_half.util_weighted_sum;
}

// `phillyctl simulate` (RunSimulateOrReport) followed by the workload's
// verification commands (RunAnalyze*), call by call.
bool TraceSimulate(const Options& options, Ledger& ledger) {
  const bool observed = options.workload == "paper75-observed";
  const bool year = options.workload == "year365-faults";
  const std::string out = kOut;
  ExperimentConfig config = SimulateConfig(options);
  Sinks sinks;
  sinks.Attach(options, &config.simulation.obs);
  TraceProfiler profiler;
  if (options.traced) {
    config.simulation.obs.profiler = &profiler;
  }

  std::vector<JobSpec> jobs;
  ledger.Time("workload.generate_s", [&] { jobs = WorkloadGenerator(config.workload).Generate(); });
  ledger.Set("workload.jobs", static_cast<double>(jobs.size()));
  ledger.Set("mem.after_generate_mb", PeakRssMb());

  std::optional<ClusterSimulation> sim;
  ledger.Time("sched.ctor_s", [&] { sim.emplace(config.simulation, std::move(jobs)); });
  const double rss_before_run = PeakRssMb();
  SimulationResult result;
  ledger.Time("sched.run_s", [&] { result = sim->Run(); });
  ledger.Set("mem.run_growth_mb", PeakRssMb() - rss_before_run);
  ledger.Set("mem.after_run_mb", PeakRssMb());
  ledger.Time("mem.release_s", [&] { sim.reset(); });
  if (observed) {
    // RunExperiment's own wall-clock observation when metrics are attached.
    sinks.metrics.GetHistogram("sim.events_per_sec")
        ->Observe(static_cast<double>(result.sim_events_processed) / ledger.Get("sched.run_s"));
  }
  // Migration is off, so every profiler slice is a scheduling pass.
  ledger.Set("sched.pass_s",
             static_cast<double>(profiler.TotalDurationOf("scheduling_pass")) / 1e6);
  ledger.Set("sched.passes", static_cast<double>(profiler.size()));
  AddRunCounters(ledger, result);

  RunManifest manifest;
  manifest.tool = "phillyctl";
  manifest.command = "simulate";
  manifest.seed = config.simulation.seed;
  manifest.days = year ? 365 : 75;
  manifest.threads = 1;
  manifest.knobs["scheduler"] = config.simulation.scheduler.name;
  manifest.knobs["retry"] = "fixed";
  manifest.knobs["format"] = "native";
  manifest.knobs["faults"] = year ? "on" : "off";
  if (year) {
    manifest.knobs["checkpoint-mins"] = "60";
    manifest.knobs["ckpt-policy"] = "stagger";
    manifest.knobs["ckpt-bw"] = "2";
  }

  std::filesystem::create_directories(out);
  bool ok = true;
  ledger.Time("trace.write_s", [&] { ok = TraceWriter::WriteDirectory(result.jobs, out); });
  manifest.outputs["trace"] = out;
  ledger.Set("trace.write_mb",
             FileBytes(out, {"jobs.csv", "attempts.csv", "gpu_util.csv", "stdout.log"}) / 1e6);

  TimeReport(ledger, result.jobs, &result);
  ledger.Set("mem.after_analyze_mb", PeakRssMb());

  if (observed) {
    ok = WriteStream(ledger, out + "/events.ndjson", "events", "obs.events_encode_s", &manifest,
                     [&](std::ostream& s) { sinks.events.WriteNdjson(s); }) && ok;
    ok = WriteStream(ledger, out + "/metrics.json", "metrics", "obs.metrics_encode_s", &manifest,
                     [&](std::ostream& s) { sinks.metrics.WriteJson(s); }) && ok;
    TelemetryDigest digest;
    ledger.Time("obs.digest_of_samples_s",
                [&] { digest = DigestOfSamples(sinks.timeseries.samples()); });
    AddUtilDigest(ledger, result.jobs, &digest);
    ok = WriteStream(ledger, out + "/telemetry.ndjson", "telemetry", "obs.telemetry_encode_s",
                     &manifest,
                     [&](std::ostream& s) { sinks.timeseries.WriteNdjson(s, &digest); }) && ok;
    ok = WriteStream(ledger, out + "/spans.ndjson", "spans", "obs.spans_encode_s", &manifest,
                     [&](std::ostream& s) { sinks.spans.log().WriteNdjson(s); }) && ok;
    ledger.Set("obs.events", static_cast<double>(sinks.events.size()));
    ledger.Set("obs.telemetry", static_cast<double>(sinks.timeseries.samples().size()));
    ledger.Set("obs.spans", static_cast<double>(sinks.spans.log().size()));
    ledger.Set("obs.events_bytes", FileBytes(out, {"events.ndjson"}));
    ledger.Set("obs.telemetry_bytes", FileBytes(out, {"telemetry.ndjson"}));
    ledger.Set("obs.spans_bytes", FileBytes(out, {"spans.ndjson"}));
  }
  ledger.Time("trace.write_s", [&] { ok = manifest.WriteFile(out + "/manifest.json") && ok; });
  ledger.Set("mem.after_write_mb", PeakRssMb());
  // Release the run before the verification commands, which phillyctl runs
  // as separate processes.
  ledger.Time("mem.release_s", [&] {
    result = SimulationResult{};
    sinks.events.Clear();
    sinks.timeseries.Clear();
    sinks.spans.Clear();
  });

  // paper75 and year365-faults have no verification command: `phillyctl
  // analyze --trace` rejects a native trace in which any job retried,
  // because jobs.csv keeps only the first wait.
  if (!observed || !options.traced) {
    return ok;
  }

  // `phillyctl analyze --from-events out/events.ndjson --spans
  // out/spans.ndjson --trace out`.
  std::string error;
  std::vector<SchedEvent> events;
  ledger.Time("obs.events_decode_s", [&] {
    std::ifstream in(out + "/events.ndjson");
    events = EventLog::ReadNdjson(in, &error);
  });
  SimulationResult joined;
  ledger.Time("core.event_join_s", [&] { joined = JoinSchedulerEvents(events, &error); });
  ledger.Time("mem.release_s", [&] { events = {}; });
  TimeEventReport(ledger, joined);
  std::vector<SpanRecord> spans;
  ledger.Time("obs.spans_decode_s", [&] {
    std::ifstream in(out + "/spans.ndjson");
    spans = SpanLog::ReadNdjson(in, &error);
  });
  bool verified = error.empty();
  ledger.Time("core.blame_verify_s", [&] {
    verified = VerifyBlameConservation(spans, joined.jobs, &error) && verified;
  });
  ledger.Time("core.spans_table2_s", [&] {
    const DelayCauseResult native = AnalyzeDelayCauses(joined.jobs, nullptr);
    verified = CrossCheckDelayCauses(native, DelayCausesFromSpans(spans), &error) && verified;
  });
  ledger.Time("mem.release_s", [&] { spans = {}; });
  std::vector<JobRecord> native = ReadNativeTrace(ledger, out);
  ledger.Time("core.event_join_s",
              [&] { verified = JoinedMatchesTrace(joined.jobs, native) && verified; });
  ledger.Time("mem.release_s", [&] {
    native = {};
    joined = SimulationResult{};
  });

  // `phillyctl analyze --telemetry out/telemetry.ndjson --trace out`.
  TelemetryDigest written_digest;
  bool found_digest = false;
  std::vector<TelemetrySample> samples;
  ledger.Time("obs.telemetry_decode_s", [&] {
    std::ifstream in(out + "/telemetry.ndjson");
    samples = ClusterTimeSeries::ReadNdjson(in, &written_digest, &found_digest, &error);
  });
  ledger.Time("obs.digest_of_samples_s", [&] {
    verified = SampleAggregatesEqual(DigestOfSamples(samples), written_digest) && verified;
  });
  ledger.Time("mem.release_s", [&] { samples = {}; });
  native = ReadNativeTrace(ledger, out);
  ledger.Time("core.util_digest_s", [&] {
    verified = JobAggregatesEqual(ComputeUtilDigest(native), written_digest) && verified;
  });
  ledger.Time("mem.release_s", [&] { native = {}; });
  if (!error.empty()) {
    std::fprintf(stderr, "verification failed: %s\n", error.c_str());
  }
  return ok && verified && found_digest;
}

// p95 of initial queueing delay in minutes, as phillyctl's fleet table
// computes it for the dashboard.
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
  const size_t index = static_cast<size_t>(0.95 * static_cast<double>(delays.size() - 1) + 0.5);
  return delays[std::min(index, delays.size() - 1)];
}

// `phillyctl fleet` (RunFleet) followed by `phillyctl analyze --telemetry`
// over every member stream.
bool TraceFleet(const Options& options, Ledger& ledger) {
  const std::string out = kOut;
  const std::vector<ClusterConfig> cluster_configs = FleetClusters();
  // FleetSimulation::Run generates every member internally, in parallel; this
  // serial generation exists only to time the workload layer.
  ledger.Time("workload.generate_s", [&] {
    size_t jobs = 0;
    for (size_t i = 0; i < cluster_configs.size(); ++i) {
      jobs += WorkloadGenerator(FleetMember(cluster_configs, i, options.seed).workload)
                  .Generate()
                  .size();
    }
    ledger.Set("workload.jobs", static_cast<double>(jobs));
  });
  ledger.Set("mem.after_generate_mb", PeakRssMb());

  FleetConfig config;
  RouterPolicyFromString("spillover", &config.router.policy);
  config.collect_events = true;
  config.collect_telemetry = true;
  config.threads = kFleetThreads;
  for (size_t i = 0; i < cluster_configs.size(); ++i) {
    config.clusters.push_back(
        {"cluster" + std::to_string(i), FleetMember(cluster_configs, i, options.seed)});
  }
  const int64_t spill_threshold = config.router.spill_threshold;
  FleetResult result;
  ledger.Time("fleet.run_s", [&] { result = FleetSimulation(std::move(config)).Run(); });
  ledger.Set("mem.after_run_mb", PeakRssMb());
  ledger.Set("fleet.jobs", static_cast<double>(result.total_jobs));
  ledger.Set("fleet.spilled_jobs", static_cast<double>(result.spilled_jobs));
  ledger.Set("fleet.route_events", static_cast<double>(result.route_events.size()));
  for (const FleetClusterResult& cluster : result.clusters) {
    AddRunCounters(ledger, cluster.result);
  }

  FleetDashboardSection section;
  ledger.Time("core.fleet_table_s", [&] {
    section.router = "spillover";
    section.total_jobs = result.total_jobs;
    section.spilled_jobs = result.spilled_jobs;
    for (size_t i = 0; i < result.clusters.size(); ++i) {
      const FleetClusterResult& cluster = result.clusters[i];
      double occupancy_sum = 0.0;
      for (const TelemetrySample& s : cluster.telemetry.samples()) {
        occupancy_sum += s.occupancy;
      }
      const double mean_occ =
          cluster.telemetry.samples().empty()
              ? 0.0
              : occupancy_sum / static_cast<double>(cluster.telemetry.samples().size());
      section.clusters.push_back({cluster.name, cluster_configs[i].TotalGpus(), cluster.num_jobs,
                                  cluster.home_jobs, cluster.routed_in, cluster.routed_away,
                                  mean_occ, P95QueueDelayMinutes(cluster.result.jobs)});
    }
  });
  ledger.Set("mem.after_analyze_mb", PeakRssMb());

  RunManifest manifest;
  manifest.tool = "phillyctl";
  manifest.command = "fleet";
  manifest.seed = options.seed;
  manifest.days = kFleetDays;
  manifest.threads = kFleetThreads;
  manifest.knobs["clusters"] = kFleetClusters;
  manifest.knobs["router"] = "spillover";
  manifest.knobs["spill-threshold"] = std::to_string(spill_threshold);

  std::filesystem::create_directories(out);
  bool ok = WriteStream(ledger, out + "/fleet_events.ndjson", "fleet-events",
                        "obs.route_encode_s", &manifest,
                        [&](std::ostream& s) { result.route_events.WriteNdjson(s); });
  for (const FleetClusterResult& cluster : result.clusters) {
    const std::string base = out + "/" + cluster.name;
    ok = WriteStream(ledger, base + ".events.ndjson", cluster.name + "-events",
                     "obs.events_encode_s", &manifest,
                     [&](std::ostream& s) { cluster.events.WriteNdjson(s); }) && ok;
    TelemetryDigest digest;
    ledger.Time("obs.digest_of_samples_s",
                [&] { digest = DigestOfSamples(cluster.telemetry.samples()); });
    AddUtilDigest(ledger, cluster.result.jobs, &digest);
    ok = WriteStream(ledger, base + ".telemetry.ndjson", cluster.name + "-telemetry",
                     "obs.telemetry_encode_s", &manifest,
                     [&](std::ostream& s) { cluster.telemetry.WriteNdjson(s, &digest); }) && ok;
    ledger.Add("obs.events", static_cast<double>(cluster.events.size()));
    ledger.Add("obs.telemetry", static_cast<double>(cluster.telemetry.samples().size()));
    ledger.Add("obs.events_bytes", FileBytes(out, {cluster.name + ".events.ndjson"}));
    ledger.Add("obs.telemetry_bytes", FileBytes(out, {cluster.name + ".telemetry.ndjson"}));
  }

  ledger.Time("core.html_render_s", [&] {
    std::vector<TelemetrySample> all_samples;
    std::vector<SchedEvent> all_events;
    std::vector<JobRecord> all_jobs;
    for (const FleetClusterResult& cluster : result.clusters) {
      all_samples.insert(all_samples.end(), cluster.telemetry.samples().begin(),
                         cluster.telemetry.samples().end());
      all_events.insert(all_events.end(), cluster.events.events().begin(),
                        cluster.events.events().end());
      all_jobs.insert(all_jobs.end(), cluster.result.jobs.begin(), cluster.result.jobs.end());
    }
    all_events.insert(all_events.end(), result.route_events.events().begin(),
                      result.route_events.events().end());
    HtmlDashboardInput dashboard;
    dashboard.title = "philly fleet (spillover) seed " + std::to_string(options.seed) + ", " +
                      std::to_string(kFleetDays) + " days";
    dashboard.samples = &all_samples;
    dashboard.events = &all_events;
    dashboard.jobs = &all_jobs;
    dashboard.fleet = &section;
    const std::string html = RenderHtmlDashboard(dashboard);
    const std::string path = out + "/dashboard.html";
    std::ofstream file(path, std::ios::binary);
    file.write(html.data(), static_cast<std::streamsize>(html.size()));
    ok = file.good() && ok;
    manifest.outputs["dashboard"] = path;
    manifest.digests["dashboard"] = Sha256Hex(html);
  });
  ledger.Time("trace.write_s", [&] { ok = manifest.WriteFile(out + "/manifest.json") && ok; });
  ledger.Set("mem.after_write_mb", PeakRssMb());
  const size_t members = result.clusters.size();
  ledger.Time("mem.release_s", [&] { result = FleetResult{}; });
  if (!options.traced) {
    return ok;
  }

  // `phillyctl analyze --telemetry out/clusterN.telemetry.ndjson`, per member.
  bool verified = true;
  for (size_t i = 0; i < members; ++i) {
    TelemetryDigest written_digest;
    bool found_digest = false;
    std::string error;
    std::vector<TelemetrySample> samples;
    ledger.Time("obs.telemetry_decode_s", [&] {
      std::ifstream in(out + "/cluster" + std::to_string(i) + ".telemetry.ndjson");
      samples = ClusterTimeSeries::ReadNdjson(in, &written_digest, &found_digest, &error);
    });
    ledger.Time("obs.digest_of_samples_s", [&] {
      verified = error.empty() && found_digest &&
                 SampleAggregatesEqual(DigestOfSamples(samples), written_digest) && verified;
    });
  }
  return ok && verified;
}

int RunTrace(const Options& options) {
  Ledger ledger;
  const auto start = Clock::now();
  const bool ok = IsSimulateWorkload(options.workload) ? TraceSimulate(options, ledger)
                                                       : TraceFleet(options, ledger);
  const double wall = SecondsSince(start);
  const double run_s = ledger.Get("sched.run_s");
  const double events = ledger.Get("sim.events");
  if (run_s > 0.0 && events > 0.0) {
    ledger.Set("sched.rest_s", run_s - ledger.Get("sched.pass_s"));
    ledger.Set("sched.ns_per_event", run_s * 1e9 / events);
  }
  ledger.Set("workload.ns_per_job",
             ledger.Get("workload.generate_s") * 1e9 / ledger.Get("workload.jobs"));
  ledger.Set("ledger.traced_wall_s", wall);
  ledger.Set("ledger.coverage", ledger.timed_s() / wall);
  ledger.Set("ok", ok ? 1.0 : 0.0);
  ledger.Print();
  return ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  if (argc % 2 != 0) {
    return false;
  }
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    const unsigned long long number = std::strtoull(value.c_str(), &end, 10);
    const bool is_number = end != value.c_str() && *end == '\0' && value[0] != '-';
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed" && is_number) {
      options->seed = number;
    } else {
      std::fprintf(stderr, "bad argument %s %s\n", key.c_str(), value.c_str());
      return false;
    }
  }
  if (!IsSimulateWorkload(options->workload) && options->workload != "fleet4-spill") {
    std::fprintf(stderr, "unknown workload '%s'\n", options->workload.c_str());
    return false;
  }
  return true;
}

}  // namespace
}  // namespace philly

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  if (command == "build-info") {
#ifdef NDEBUG
    const int ndebug = 1;
#else
    const int ndebug = 0;
#endif
    std::printf("{\"compiler\": \"%s\", \"ndebug\": %d}\n", __VERSION__, ndebug);
    return 0;
  }
  philly::Options options;
  if ((command != "setup" && command != "trace" && command != "plain") ||
      !philly::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: phillybench_replay build-info | (setup|trace|plain) --workload W "
                 "--seed S\n");
    return 2;
  }
  options.traced = command == "trace";
  return command == "setup" ? philly::RunSetup(options) : philly::RunTrace(options);
}
