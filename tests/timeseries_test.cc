// Tests for the telemetry stream: stream reading (line-level codec cases are
// in ndjson_codec_test.cc), the per-minute sampling contract, digest self-checks (sample half and job half), rollup
// windowing, and the two contracts shared with the event log —
// byte-identical streams regardless of pool thread count, and zero
// perturbation of simulation output when the sink is attached.
//
// TelemetryStreamDeterministicAcrossPoolThreads carries the `tsan` ctest
// label via this binary (see tests/CMakeLists.txt).

#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"
#include "src/fault/fault_process.h"
#include "src/obs/rollup.h"

namespace philly {
namespace {

ExperimentConfig SmallConfig(uint64_t seed) {
  return ExperimentConfig::BenchScale(/*days=*/1, seed);
}

std::string NdjsonOf(const ClusterTimeSeries& ts,
                     const TelemetryDigest* digest = nullptr) {
  std::ostringstream out;
  ts.WriteNdjson(out, digest);
  return out.str();
}

// ------------------------------------------------------------ NDJSON stream
// (line-level codec cases: ndjson_codec_test.cc)

TEST(TimeSeriesCodecTest, ReadNdjsonReportsMalformedLine) {
  std::istringstream in(
      "{\"t\":60,\"rack_free\":[],\"vc_queued\":[],\"vc_running\":[],"
      "\"vc_gpus\":[],\"util_deciles\":[0,0,0,0,0,0,0,0,0,0]}\n"
      "not json at all\n");
  TelemetryDigest digest;
  bool found_digest = false;
  std::string error;
  const auto samples =
      ClusterTimeSeries::ReadNdjson(in, &digest, &found_digest, &error);
  EXPECT_EQ(samples.size(), 1u);
  EXPECT_FALSE(found_digest);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// --------------------------------------------------------- sampling contract

TEST(ClusterTimeSeriesTest, SamplesLieOnTheMinuteGrid) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(7);
  config.simulation.obs.timeseries = &ts;
  RunExperiment(config);

  ASSERT_GT(ts.samples().size(), 100u);
  for (size_t i = 0; i < ts.samples().size(); ++i) {
    EXPECT_EQ(ts.samples()[i].time,
              static_cast<SimTime>(i + 1) * ts.period());
  }
  // Cumulative counters are monotone.
  for (size_t i = 1; i < ts.samples().size(); ++i) {
    EXPECT_GE(ts.samples()[i].preemptions, ts.samples()[i - 1].preemptions);
    EXPECT_GE(ts.samples()[i].locality_relaxations,
              ts.samples()[i - 1].locality_relaxations);
  }
  // Occupancy identity holds on every line.
  for (const TelemetrySample& s : ts.samples()) {
    int rack_free = 0;
    for (int f : s.rack_free_gpus) {
      rack_free += f;
    }
    EXPECT_EQ(rack_free, s.free_gpus) << "at t=" << s.time;
  }
}

TEST(ClusterTimeSeriesTest, FullRunStreamRoundTripsByteIdentically) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(13);
  config.simulation.obs.timeseries = &ts;
  const auto run = RunExperiment(config);

  TelemetryDigest digest = DigestOfSamples(ts.samples());
  const TelemetryDigest jobs_half = ComputeUtilDigest(run.result.jobs);
  digest.jobs = jobs_half.jobs;
  digest.segments = jobs_half.segments;
  digest.util_weight = jobs_half.util_weight;
  digest.util_weighted_sum = jobs_half.util_weighted_sum;

  const std::string ndjson = NdjsonOf(ts, &digest);
  std::istringstream in(ndjson);
  TelemetryDigest read_digest;
  bool found_digest = false;
  std::string error;
  const auto samples =
      ClusterTimeSeries::ReadNdjson(in, &read_digest, &found_digest, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(found_digest);
  ASSERT_EQ(samples.size(), ts.samples().size());
  EXPECT_EQ(read_digest, digest);

  // The reader's recomputation of both digest halves is exact: file-order
  // aggregates over the parsed samples, and the same job-derived utilization
  // aggregates from the run's records.
  EXPECT_TRUE(SampleAggregatesEqual(DigestOfSamples(samples), read_digest));
  EXPECT_TRUE(JobAggregatesEqual(ComputeUtilDigest(run.result.jobs), read_digest));

  // And the parsed samples re-serialize to the same bytes.
  std::string reserialized;
  for (const TelemetrySample& s : samples) {
    reserialized += ToNdjsonLine(s);
    reserialized += '\n';
  }
  reserialized += ToNdjsonLine(read_digest);
  reserialized += '\n';
  EXPECT_EQ(reserialized, ndjson);
}

TEST(ClusterTimeSeriesTest, TamperedStreamFailsTheSampleDigest) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(13);
  config.simulation.obs.timeseries = &ts;
  RunExperiment(config);

  const TelemetryDigest digest = DigestOfSamples(ts.samples());
  std::vector<TelemetrySample> tampered = ts.samples();
  tampered[tampered.size() / 2].used_gpus += 1;
  EXPECT_FALSE(SampleAggregatesEqual(DigestOfSamples(tampered), digest));
}

// Attaching the telemetry sink must not change a single bit of the
// simulation output: sampling rides the clock-advance hook and adds zero
// simulator events.
TEST(ClusterTimeSeriesTest, EnabledSinkDoesNotPerturbSimulation) {
  const ExperimentConfig base = SmallConfig(23);
  const SimulationResult plain = RunExperiment(base).result;

  ClusterTimeSeries ts;
  ExperimentConfig observed = base;
  observed.simulation.obs.timeseries = &ts;
  const SimulationResult instrumented = RunExperiment(observed).result;

  ASSERT_EQ(plain.jobs.size(), instrumented.jobs.size());
  EXPECT_EQ(plain.scheduling_decisions, instrumented.scheduling_decisions);
  EXPECT_EQ(plain.preemptions, instrumented.preemptions);
  EXPECT_EQ(plain.sim_events_processed, instrumented.sim_events_processed);
  for (size_t i = 0; i < plain.jobs.size(); ++i) {
    const JobRecord& a = plain.jobs[i];
    const JobRecord& b = instrumented.jobs[i];
    ASSERT_EQ(a.spec.id, b.spec.id);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.finish_time, b.finish_time);
    EXPECT_EQ(a.GpuSeconds(), b.GpuSeconds());
    EXPECT_EQ(a.util_segments.size(), b.util_segments.size());
  }
  EXPECT_GT(ts.samples().size(), 0u);
}

// The cross-thread byte-identity contract (tsan-labelled): the same seeds
// produce the same telemetry bytes whether runs execute serially or on an
// ExperimentPool with 4 workers.
TEST(ClusterTimeSeriesTest, TelemetryStreamDeterministicAcrossPoolThreads) {
  const std::vector<uint64_t> seeds = {7, 11, 19};

  std::vector<std::string> serial;
  for (uint64_t seed : seeds) {
    ClusterTimeSeries ts;
    ExperimentConfig config = SmallConfig(seed);
    config.simulation.obs.timeseries = &ts;
    RunExperiment(config);
    serial.push_back(NdjsonOf(ts));
  }

  std::vector<ClusterTimeSeries> recorders(seeds.size());
  std::vector<ExperimentConfig> configs;
  for (size_t i = 0; i < seeds.size(); ++i) {
    ExperimentConfig config = SmallConfig(seeds[i]);
    config.simulation.obs.timeseries = &recorders[i];
    configs.push_back(std::move(config));
  }
  const ExperimentPool pool(4);
  pool.RunMany(std::move(configs));

  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(NdjsonOf(recorders[i]), serial[i]) << "seed " << seeds[i];
  }
}

TEST(ClusterTimeSeriesTest, RunManyRejectsSharedRecorder) {
  ClusterTimeSeries shared;
  std::vector<ExperimentConfig> configs;
  for (uint64_t seed : {1u, 2u}) {
    ExperimentConfig config = SmallConfig(seed);
    config.simulation.obs.timeseries = &shared;
    configs.push_back(std::move(config));
  }
  const ExperimentPool pool(2);
  EXPECT_THROW(pool.RunMany(std::move(configs)), std::invalid_argument);
}

TEST(ClusterTimeSeriesTest, StreamCoversFaultCounters) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(29);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.obs.timeseries = &ts;
  const auto run = RunExperiment(config);

  ASSERT_FALSE(ts.samples().empty());
  const TelemetrySample& last = ts.samples().back();
  EXPECT_EQ(last.fault_kills, run.result.machine_fault_kills);
  EXPECT_EQ(last.lost_gpu_seconds, run.result.machine_fault_lost_gpu_seconds);
  EXPECT_EQ(last.preemptions, run.result.preemptions);
  EXPECT_EQ(last.migrations, run.result.migrations);
}

// ------------------------------------------------------------------ rollup

TEST(TelemetryRollupTest, WindowsDownsampleTheStream) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(7);
  config.simulation.obs.timeseries = &ts;
  RunExperiment(config);

  TelemetryRollup rollup(Hours(1));
  for (const TelemetrySample& sample : ts.samples()) {
    rollup.Add(PointOf(sample));
  }
  ASSERT_FALSE(rollup.windows().empty());

  int64_t total = 0;
  for (const auto& [start, window] : rollup.windows()) {
    EXPECT_EQ(start % Hours(1), 0);
    EXPECT_GT(window.samples, 0);
    EXPECT_LE(window.samples, 60);  // one-minute cadence, one-hour windows
    EXPECT_GE(window.MeanOccupancy(), 0.0);
    EXPECT_LE(window.MeanOccupancy(), 1.0);
    total += window.samples;
  }
  EXPECT_EQ(total, static_cast<int64_t>(ts.samples().size()));
  EXPECT_EQ(rollup.util_observed_pct().count(),
            static_cast<int64_t>(ts.samples().size()));
}

TEST(TelemetryRollupTest, RejectsNonPositiveWindow) {
  EXPECT_THROW(TelemetryRollup(0), std::invalid_argument);
}

}  // namespace
}  // namespace philly
