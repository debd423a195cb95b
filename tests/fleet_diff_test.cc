// Differential tests for fleet mode (docs/fleet.md), enforcing its ground
// rule: the fleet layer adds routing, never perturbation.
//
//   * With RouterPolicy::kPinnedHome and a partitioned trace, every
//     per-cluster stream — the scheduler event NDJSON, the telemetry NDJSON,
//     and the analyses derived from the job records (Table 2, Fig 3) — must
//     be byte-identical to N separate single-cluster runs wired by hand.
//   * Every stream (fleet route log included) must be byte-identical across
//     ExperimentPool thread counts, for every policy. The suite is also in
//     the tsan label set, and thread count 0 defers to PHILLY_BENCH_THREADS,
//     so CI's env matrix exercises the same assertions.
//   * Randomized-policy rounds: a fleet with a randomly drawn dynamic policy,
//     spill threshold, and seed must reproduce all streams across thread
//     counts, with fleet-unique job ids in the route stream.

#include "src/fleet/fleet.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/analysis.h"
#include "src/fleet/router.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sched/simulation.h"
#include "src/workload/generator.h"

namespace philly {
namespace {

// Three heterogeneous small clusters (128 / 128 / 32 GPUs, one with 4-GPU
// servers) built through the same spec parser phillyctl uses.
std::vector<FleetClusterSpec> MakeSpecs(uint64_t base_seed, int days) {
  std::vector<ClusterConfig> topologies;
  std::string error;
  if (!ParseClustersSpec("2x8x8,1x16x8,2x4x4", &topologies, &error)) {
    ADD_FAILURE() << "topology spec rejected: " << error;
    return {};
  }
  std::vector<FleetClusterSpec> specs;
  for (size_t i = 0; i < topologies.size(); ++i) {
    FleetClusterSpec spec;
    spec.name = "cluster" + std::to_string(i);
    spec.experiment = FleetClusterExperiment(topologies[i], days, base_seed,
                                             static_cast<int>(i));
    specs.push_back(std::move(spec));
  }
  return specs;
}

FleetConfig MakeConfig(uint64_t base_seed, RouterPolicy policy, int threads) {
  FleetConfig config;
  config.clusters = MakeSpecs(base_seed, /*days=*/1);
  config.router.policy = policy;
  config.collect_events = true;
  config.collect_telemetry = true;
  config.threads = threads;
  return config;
}

std::string EventsNdjson(const EventLog& log) {
  std::ostringstream out;
  log.WriteNdjson(out);
  return out.str();
}

std::string TelemetryNdjson(const ClusterTimeSeries& timeseries) {
  std::ostringstream out;
  timeseries.WriteNdjson(out);
  return out.str();
}

// Every stream a fleet run produces, labelled so a mismatch names the
// offender: the route log plus each cluster's event and telemetry streams.
std::vector<std::pair<std::string, std::string>> StreamsOf(const FleetResult& fleet) {
  std::vector<std::pair<std::string, std::string>> streams;
  streams.emplace_back("route", EventsNdjson(fleet.route_events));
  for (const FleetClusterResult& cluster : fleet.clusters) {
    streams.emplace_back(cluster.name + ".events", EventsNdjson(cluster.events));
    streams.emplace_back(cluster.name + ".telemetry",
                         TelemetryNdjson(cluster.telemetry));
  }
  return streams;
}

std::string FormatFraction(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

// Fixed-format fingerprint of the analyses the paper pipeline derives from a
// cluster's job records: the Table 2 delay-cause split and the Fig 3 queue
// delay quantiles. Byte equality here means the analysis layer sees identical
// inputs, without committing the test to phillyctl's presentation.
std::string AnalysisFingerprint(const std::vector<JobRecord>& jobs,
                                const SimulationResult& result) {
  std::ostringstream out;
  const DelayCauseResult causes = AnalyzeDelayCauses(jobs, &result);
  out << "table2";
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto& cell = causes.by_bucket[static_cast<size_t>(b)];
    out << ' ' << cell.fair_share << '/' << cell.fragmentation;
  }
  out << ' ' << FormatFraction(causes.fair_share_time_fraction) << ' '
      << FormatFraction(causes.fragmentation_time_fraction) << ' '
      << FormatFraction(causes.out_of_order_fraction) << '\n';
  const QueueDelayResult delays = AnalyzeQueueDelays(jobs);
  out << "fig3";
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const StreamingHistogram& h = delays.overall[static_cast<size_t>(b)];
    out << ' ' << FormatFraction(h.Count()) << ':'
        << FormatFraction(h.Quantile(0.5)) << ':'
        << FormatFraction(h.Quantile(0.95));
  }
  out << '\n';
  return out.str();
}

// The ground rule. A pinned fleet and N hand-wired standalone runs must
// produce byte-identical per-cluster streams and analyses.
TEST(FleetDiffTest, PinnedFleetMatchesStandaloneRunsByteForByte) {
  FleetConfig config = MakeConfig(/*base_seed=*/11, RouterPolicy::kPinnedHome,
                                  /*threads=*/3);
  const size_t n = config.clusters.size();
  ASSERT_GT(n, 0u);
  const FleetResult fleet = FleetSimulation(config).Run();

  ASSERT_EQ(fleet.clusters.size(), n);
  EXPECT_EQ(fleet.spilled_jobs, 0);
  ASSERT_EQ(static_cast<size_t>(fleet.total_jobs), fleet.route_events.size());
  for (const SchedEvent& e : fleet.route_events.events()) {
    ASSERT_EQ(e.kind, SchedEventKind::kRoute);
    EXPECT_EQ(e.cluster, e.home) << "pinned routing spilled job " << e.job;
  }

  for (size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    // The standalone side re-derives everything from the same spec the fleet
    // consumed: same workload config, same simulation config, own sinks.
    const ExperimentConfig& experiment = config.clusters[i].experiment;
    WorkloadGenerator generator(experiment.workload);
    std::vector<JobSpec> trace = generator.Generate();
    ASSERT_FALSE(trace.empty());

    EventLog log;
    ClusterTimeSeries timeseries;
    SimulationConfig sim = experiment.simulation;
    sim.obs = ObservabilityConfig{};
    sim.obs.event_log = &log;
    sim.obs.timeseries = &timeseries;
    const SimulationResult standalone =
        ClusterSimulation(sim, std::move(trace)).Run();

    const FleetClusterResult& member = fleet.clusters[i];
    ASSERT_FALSE(member.events.empty());
    ASSERT_FALSE(member.telemetry.samples().empty());
    EXPECT_EQ(EventsNdjson(member.events), EventsNdjson(log));
    EXPECT_EQ(TelemetryNdjson(member.telemetry), TelemetryNdjson(timeseries));
    EXPECT_EQ(AnalysisFingerprint(member.result.jobs, member.result),
              AnalysisFingerprint(standalone.jobs, standalone));
  }
}

// Pinned routing keeps original per-trace job ids (byte-identity needs it);
// dynamic policies remap to fleet-unique ids. Both invariants read off the
// route stream.
TEST(FleetDiffTest, DynamicPoliciesRemapIdsPinnedKeepsThem) {
  const FleetResult pinned =
      FleetSimulation(MakeConfig(5, RouterPolicy::kPinnedHome, 2)).Run();
  std::set<JobId> pinned_ids;
  for (const SchedEvent& e : pinned.route_events.events()) {
    pinned_ids.insert(e.job);
  }
  // Per-cluster traces each start at id 1, so with >1 cluster the pinned
  // route stream must reuse ids across homes.
  EXPECT_LT(pinned_ids.size(), pinned.route_events.size());

  const FleetResult dynamic =
      FleetSimulation(MakeConfig(5, RouterPolicy::kLeastLoaded, 2)).Run();
  std::set<JobId> dynamic_ids;
  for (const SchedEvent& e : dynamic.route_events.events()) {
    dynamic_ids.insert(e.job);
  }
  EXPECT_EQ(dynamic_ids.size(), dynamic.route_events.size())
      << "dynamic routing must remap to fleet-unique ids";
  EXPECT_EQ(dynamic.total_jobs, pinned.total_jobs);
}

// Every stream must be independent of the pool's thread count, for every
// policy. Thread count 0 resolves through PHILLY_BENCH_THREADS, so CI's env
// matrix (and the tsan job) exercise further schedules of the same run.
TEST(FleetDiffTest, AllStreamsIdenticalAcrossThreadCounts) {
  for (const RouterPolicy policy :
       {RouterPolicy::kPinnedHome, RouterPolicy::kLeastLoaded,
        RouterPolicy::kSpillover}) {
    SCOPED_TRACE(std::string(ToString(policy)));
    const FleetResult baseline = FleetSimulation(MakeConfig(23, policy, 1)).Run();
    const auto expected = StreamsOf(baseline);
    ASSERT_FALSE(expected.empty());
    for (const int threads : {0, 2, 5}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const FleetResult run = FleetSimulation(MakeConfig(23, policy, threads)).Run();
      const auto actual = StreamsOf(run);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t s = 0; s < expected.size(); ++s) {
        EXPECT_EQ(actual[s].second, expected[s].second)
            << "stream " << expected[s].first << " differs";
      }
    }
  }
}

// Randomized-policy rounds: routing configs drawn from an Rng must still
// reproduce every stream across thread counts.
TEST(FleetDiffTest, RandomizedPoliciesAreDeterministicAcrossThreads) {
  Rng rng(404);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const uint64_t seed = rng.Below(1u << 20);
    const RouterPolicy policy = rng.Bernoulli(0.5) ? RouterPolicy::kLeastLoaded
                                                   : RouterPolicy::kSpillover;
    FleetConfig a = MakeConfig(seed, policy, /*threads=*/1);
    a.router.spill_threshold = static_cast<int64_t>(rng.Between(0, 6));
    FleetConfig b = a;
    b.threads = 4;

    const FleetResult run_a = FleetSimulation(std::move(a)).Run();
    const FleetResult run_b = FleetSimulation(std::move(b)).Run();
    const auto streams_a = StreamsOf(run_a);
    const auto streams_b = StreamsOf(run_b);
    ASSERT_EQ(streams_a.size(), streams_b.size());
    for (size_t s = 0; s < streams_a.size(); ++s) {
      EXPECT_EQ(streams_a[s].second, streams_b[s].second)
          << "stream " << streams_a[s].first << " differs (policy "
          << ToString(policy) << ")";
    }
    EXPECT_EQ(run_a.spilled_jobs, run_b.spilled_jobs);
  }
}

}  // namespace
}  // namespace philly
