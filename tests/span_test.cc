// Tests for the queueing-delay attribution engine (src/obs/span.h +
// src/core/span_analysis.h).
//
//   * The Chrome-trace export shape (the NDJSON line codec is covered by
//     ndjson_codec_test.cc).
//   * The blame-conservation property: for randomized configurations — faults
//     on/off, checkpoint I/O on/off under both policies, different seeds —
//     run through the ExperimentPool, every completed job's attributed blame
//     intervals sum exactly to its measured queueing delay, and Table 2
//     rebuilt from the spans alone equals the native analysis.
//   * Determinism: the span stream is byte-identical across pool thread
//     counts, and attaching the span sink does not perturb the run (the
//     scheduler event stream stays byte-identical).
//   * Fleet: per-cluster span streams conserve blame under dynamic routing,
//     spilled jobs carry router_queue blame, and under the pinned router each
//     cluster's stream is byte-identical to its standalone run.
//   * The telemetry join: with the span sink attached, samples carry the
//     per-VC blame rollup and it survives the NDJSON round-trip.
//
// The pool-based tests are labelled tsan in tests/CMakeLists.txt: the
// tracer's per-run state must never be shared across worker threads.

#include "src/obs/span.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"
#include "src/core/span_analysis.h"
#include "src/fault/fault_process.h"
#include "src/fleet/fleet.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"

namespace philly {
namespace {

// Small fixed workload in the golden test's shape: one day of arrivals at
// reduced rates against a quarter-size cluster with a warm-start cohort, so
// runs queue enough to exercise fair-share, fragmentation, and locality
// blame while staying fast enough to repeat across configurations.
ExperimentConfig SmallConfig(uint64_t seed) {
  ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, seed);
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

// The randomized-configuration matrix: every combination the attribution
// engine claims to cover — clean runs, machine faults (fault_recovery blame),
// and the checkpoint I/O model under both policies (ckpt_stall spans,
// interrupted writes) — across distinct seeds.
std::vector<ExperimentConfig> PropertyConfigs() {
  std::vector<ExperimentConfig> configs;
  configs.push_back(SmallConfig(7));
  {
    ExperimentConfig config = SmallConfig(11);
    config.simulation.fault = FaultProcessConfig::Calibrated();
    config.simulation.fault.server_crash_mtbf_hours = 24.0 * 8;
    config.simulation.fault.gpu_ecc_mtbf_hours = 24.0 * 12;
    config.simulation.fault.rack_outage_mtbf_hours = 24.0 * 20;
    configs.push_back(std::move(config));
  }
  {
    ExperimentConfig config = SmallConfig(13);
    config.simulation.fault = FaultProcessConfig::Calibrated();
    config.simulation.fault.server_crash_mtbf_hours = 24.0 * 8;
    config.simulation.scheduler.checkpoint_period = Minutes(30);
    config.simulation.scheduler.checkpoint_policy =
        CheckpointPolicy::kCooperativeStagger;
    config.simulation.ckpt_io.rack_bandwidth_gbps = 0.5;
    config.simulation.ckpt_io.size_gb_per_gpu = 4.0;
    configs.push_back(std::move(config));
  }
  {
    ExperimentConfig config = SmallConfig(17);
    config.simulation.scheduler.checkpoint_period = Minutes(45);
    config.simulation.scheduler.checkpoint_policy =
        CheckpointPolicy::kDalyOptimal;
    config.simulation.ckpt_io.rack_bandwidth_gbps = 1.0;
    configs.push_back(std::move(config));
  }
  return configs;
}

// Attaches one tracer per config (stable addresses: the tracers outlive the
// pool run) and executes the batch.
std::vector<ExperimentRun> RunWithSpans(
    std::vector<ExperimentConfig> configs,
    std::vector<std::unique_ptr<SpanTracer>>* tracers, int threads) {
  tracers->clear();
  for (ExperimentConfig& config : configs) {
    tracers->push_back(std::make_unique<SpanTracer>());
    config.simulation.obs.spans = tracers->back().get();
  }
  return ExperimentPool(threads).RunMany(std::move(configs));
}

std::string SerializedSpans(const SpanTracer& tracer) {
  std::ostringstream out;
  tracer.log().WriteNdjson(out);
  return out.str();
}

TEST(SpanCodecTest, ChromeTraceExportEmitsCompleteSlices) {
  SpanLog log;
  SpanRecord running;
  running.start = 60;
  running.dur = 120;
  running.kind = SpanKind::kRunning;
  running.job = 5;
  running.vc = 1;
  running.gpus = 4;
  log.Append() = running;
  std::ostringstream out;
  WriteSpanChromeTrace(out, log.spans());
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
}

// The tentpole identity, property-tested: across clean, faulty, and
// checkpoint-heavy runs, blame conservation holds for every job and the
// span-rebuilt Table 2 equals the native analysis exactly. The same batch is
// then re-run on a single-threaded pool: every span stream must come back
// byte-identical, so attribution is independent of PHILLY_BENCH_THREADS.
TEST(SpanPropertyTest, BlameConservationAndThreadIndependence) {
  std::vector<std::unique_ptr<SpanTracer>> tracers;
  const std::vector<ExperimentRun> runs =
      RunWithSpans(PropertyConfigs(), &tracers, /*threads=*/4);
  ASSERT_EQ(runs.size(), tracers.size());

  for (size_t i = 0; i < runs.size(); ++i) {
    const std::vector<SpanRecord>& spans = tracers[i]->log().spans();
    ASSERT_FALSE(spans.empty()) << "config " << i << " produced no spans";
    std::string error;
    EXPECT_TRUE(VerifyBlameConservation(spans, runs[i].result.jobs, &error))
        << "config " << i << ": " << error;
    const DelayCauseResult native =
        AnalyzeDelayCauses(runs[i].result.jobs, nullptr);
    const DelayCauseResult from_spans = DelayCausesFromSpans(spans);
    EXPECT_TRUE(CrossCheckDelayCauses(native, from_spans, &error))
        << "config " << i << ": " << error;
  }

  std::vector<std::unique_ptr<SpanTracer>> serial_tracers;
  RunWithSpans(PropertyConfigs(), &serial_tracers, /*threads=*/1);
  ASSERT_EQ(serial_tracers.size(), tracers.size());
  for (size_t i = 0; i < tracers.size(); ++i) {
    EXPECT_EQ(SerializedSpans(*tracers[i]), SerializedSpans(*serial_tracers[i]))
        << "span stream for config " << i << " depends on the thread count";
  }
}

// PR 3 ground rule, extended to the span sink: attaching it must not perturb
// the run. The scheduler event stream — which pins every decision the
// simulation makes — stays byte-identical with and without the tracer.
TEST(SpanPropertyTest, SpanSinkDoesNotPerturbTheRun) {
  ExperimentConfig with_spans = SmallConfig(7);
  EventLog events_with;
  SpanTracer spans;
  with_spans.simulation.obs.event_log = &events_with;
  with_spans.simulation.obs.spans = &spans;
  RunExperiment(with_spans);

  ExperimentConfig without_spans = SmallConfig(7);
  EventLog events_without;
  without_spans.simulation.obs.event_log = &events_without;
  RunExperiment(without_spans);

  std::ostringstream a;
  std::ostringstream b;
  events_with.WriteNdjson(a);
  events_without.WriteNdjson(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(spans.log().spans().empty());
}

// With both the telemetry recorder and the span tracer attached, samples
// carry the per-VC blame rollup, it is monotone non-decreasing (cumulative
// attributed seconds), and it survives the NDJSON round-trip.
TEST(SpanPropertyTest, TelemetryCarriesVcBlameRollup) {
  ExperimentConfig config = SmallConfig(7);
  ClusterTimeSeries timeseries(Hours(6));
  SpanTracer spans;
  config.simulation.obs.timeseries = &timeseries;
  config.simulation.obs.spans = &spans;
  RunExperiment(config);

  ASSERT_FALSE(timeseries.samples().empty());
  const TelemetrySample& last = timeseries.samples().back();
  ASSERT_FALSE(last.vc_blame_s.empty());
  ASSERT_EQ(last.vc_blame_s.size() % static_cast<size_t>(kNumBlameCodes), 0u);
  int64_t total = 0;
  for (const int64_t seconds : last.vc_blame_s) {
    ASSERT_GE(seconds, 0);
    total += seconds;
  }
  EXPECT_GT(total, 0);
  // Cumulative: each sample's per-cell value never decreases. Early samples
  // may carry no rollup at all (no blame accrued yet), and the VC-major array
  // grows as higher VC ids accrue their first blame, so compare the prefix
  // both samples share.
  for (size_t i = 1; i < timeseries.samples().size(); ++i) {
    const auto& prev = timeseries.samples()[i - 1].vc_blame_s;
    const auto& cur = timeseries.samples()[i].vc_blame_s;
    ASSERT_GE(cur.size(), prev.size()) << "sample " << i;
    for (size_t k = 0; k < prev.size(); ++k) {
      ASSERT_GE(cur[k], prev[k]) << "sample " << i << " cell " << k;
    }
  }

  std::ostringstream out;
  timeseries.WriteNdjson(out, nullptr);
  std::istringstream in(out.str());
  TelemetryDigest digest;
  bool found_digest = false;
  std::string error;
  const std::vector<TelemetrySample> parsed =
      ClusterTimeSeries::ReadNdjson(in, &digest, &found_digest, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(parsed.size(), timeseries.samples().size());
  EXPECT_EQ(parsed.back().vc_blame_s, last.vc_blame_s);
}

TEST(SpanExplainTest, RendersTimelineForKnownJobOnly) {
  ExperimentConfig config = SmallConfig(7);
  SpanTracer spans;
  config.simulation.obs.spans = &spans;
  const ExperimentRun run = RunExperiment(config);

  // Pick a job that measurably waited, so the timeline has a queued span
  // with a blame breakdown.
  JobId waited = kNoJob;
  for (const JobRecord& job : run.result.jobs) {
    if (!job.waits.empty() && job.waits.front().wait > 0) {
      waited = job.spec.id;
      break;
    }
  }
  ASSERT_NE(waited, kNoJob);
  const std::string timeline = RenderJobExplanation(waited, spans.log().spans());
  ASSERT_FALSE(timeline.empty());
  EXPECT_NE(timeline.find("why it waited"), std::string::npos);
  EXPECT_NE(timeline.find("queued"), std::string::npos);

  EXPECT_TRUE(RenderJobExplanation(987654321, spans.log().spans()).empty());
}

std::vector<FleetClusterSpec> FleetSpecs(uint64_t base_seed) {
  std::vector<ClusterConfig> topologies;
  std::string error;
  if (!ParseClustersSpec("1x8x8,1x8x8,1x4x4", &topologies, &error)) {
    ADD_FAILURE() << "topology spec rejected: " << error;
    return {};
  }
  std::vector<FleetClusterSpec> specs;
  for (size_t i = 0; i < topologies.size(); ++i) {
    specs.push_back({"cluster" + std::to_string(i),
                     FleetClusterExperiment(topologies[i], /*days=*/1,
                                            base_seed, static_cast<int>(i))});
  }
  return specs;
}

// Dynamic routing: blame conservation holds per cluster, and — with a
// threshold of zero forcing real spills — the destination streams blame the
// pre-evaluation stretch of spilled jobs' first waits on router_queue.
TEST(SpanFleetTest, SpilloverConservesBlameAndChargesRouterQueue) {
  FleetConfig config;
  config.clusters = FleetSpecs(7);
  // Overload every member and schedule strict FIFO: a router_queue span only
  // materializes when a spilled job's first evaluation happens strictly after
  // it lands. Under the default work-conserving scheduler a pass runs at
  // enqueue time and evaluates every queued job, so the pre-eval stretch is
  // zero; with a blocked FIFO head, jobs landing behind it wait uneval'd.
  for (FleetClusterSpec& spec : config.clusters) {
    for (VcConfig& vc : spec.experiment.workload.vcs) {
      vc.arrival_rate_per_hour *= 2.5;
    }
    spec.experiment.simulation.vcs = spec.experiment.workload.vcs;
    spec.experiment.simulation.scheduler.allow_out_of_order = false;
  }
  config.router.policy = RouterPolicy::kSpillover;
  config.router.spill_threshold = 0;
  config.collect_spans = true;
  const FleetResult fleet = FleetSimulation(std::move(config)).Run();

  ASSERT_GT(fleet.spilled_jobs, 0);
  int64_t router_blame_spans = 0;
  for (const FleetClusterResult& cluster : fleet.clusters) {
    std::string error;
    EXPECT_TRUE(VerifyBlameConservation(cluster.spans.log().spans(),
                                        cluster.result.jobs, &error))
        << cluster.name << ": " << error;
    for (const SpanRecord& span : cluster.spans.log().spans()) {
      if (span.kind == SpanKind::kBlame &&
          span.code == BlameCode::kRouterQueue) {
        ++router_blame_spans;
      }
    }
  }
  EXPECT_GT(router_blame_spans, 0);
}

// Pinned-home ground rule, extended to spans: with no routing decisions to
// record, each cluster's span stream is byte-identical to the stream of its
// standalone single-cluster run.
TEST(SpanFleetTest, PinnedHomeSpanStreamsMatchStandaloneRuns) {
  FleetConfig config;
  config.clusters = FleetSpecs(7);
  config.router.policy = RouterPolicy::kPinnedHome;
  config.collect_spans = true;
  const std::vector<FleetClusterSpec> specs = FleetSpecs(7);
  const FleetResult fleet = FleetSimulation(std::move(config)).Run();

  ASSERT_EQ(fleet.clusters.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ExperimentConfig standalone = specs[i].experiment;
    SpanTracer tracer;
    standalone.simulation.obs.spans = &tracer;
    RunExperiment(standalone);
    EXPECT_EQ(SerializedSpans(fleet.clusters[i].spans),
              SerializedSpans(tracer))
        << specs[i].name << " span stream diverges from its standalone run";
  }
}

}  // namespace
}  // namespace philly
