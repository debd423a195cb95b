// Property tests for fleet mode (docs/fleet.md): invariants that must hold
// for every router policy, read off the fleet's own streams.
//
//   * Routing conservation: every submitted job is routed exactly once — the
//     route stream, the per-cluster routing counters, and the per-cluster
//     scheduler streams (kSubmit counts, id sets) must all agree.
//   * GPU-time conservation: per cluster and summed over the fleet,
//     allocated == useful + machine-fault-lost + ckpt-overhead + ckpt-stall,
//     exercised with the fault process and checkpoint I/O model enabled so
//     every term is non-zero.
//   * Router decision invariants: spillover (and least-loaded) never route to
//     a cluster whose modeled queue is longer than home's at decision time,
//     and spillover only leaves home when the home queue exceeds the
//     threshold.

#include "src/fleet/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault_process.h"
#include "src/fleet/router.h"
#include "src/obs/event_log.h"

namespace philly {
namespace {

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

FleetConfig MakeConfig(uint64_t base_seed, RouterPolicy policy) {
  FleetConfig config;
  config.clusters = MakeSpecs(base_seed, /*days=*/1);
  config.router.policy = policy;
  config.collect_events = true;
  config.collect_telemetry = true;
  return config;
}

constexpr RouterPolicy kAllPolicies[] = {
    RouterPolicy::kPinnedHome, RouterPolicy::kLeastLoaded,
    RouterPolicy::kSpillover};

// Routing conservation, checked three independent ways per policy.
TEST(FleetPropertyTest, EveryJobRoutedExactlyOnce) {
  for (const RouterPolicy policy : kAllPolicies) {
    SCOPED_TRACE(std::string(ToString(policy)));
    const FleetResult fleet = FleetSimulation(MakeConfig(31, policy)).Run();

    ASSERT_GT(fleet.total_jobs, 0);
    EXPECT_EQ(static_cast<int64_t>(fleet.route_events.size()), fleet.total_jobs);

    int64_t ran = 0;
    int64_t homed = 0;
    int64_t routed_in = 0;
    int64_t routed_away = 0;
    for (const FleetClusterResult& cluster : fleet.clusters) {
      ran += cluster.num_jobs;
      homed += cluster.home_jobs;
      routed_in += cluster.routed_in;
      routed_away += cluster.routed_away;
      // A cluster runs its homed jobs, minus the ones routed away, plus the
      // ones routed in.
      EXPECT_EQ(cluster.num_jobs,
                cluster.home_jobs - cluster.routed_away + cluster.routed_in)
          << cluster.name;
      // The scheduler stream agrees: one kSubmit per routed job.
      int64_t submits = 0;
      for (const SchedEvent& e : cluster.events.events()) {
        submits += e.kind == SchedEventKind::kSubmit ? 1 : 0;
      }
      EXPECT_EQ(submits, cluster.num_jobs) << cluster.name;
      EXPECT_EQ(static_cast<int64_t>(cluster.result.jobs.size()), cluster.num_jobs)
          << cluster.name;
    }
    EXPECT_EQ(ran, fleet.total_jobs);
    EXPECT_EQ(homed, fleet.total_jobs);
    EXPECT_EQ(routed_in, fleet.spilled_jobs);
    EXPECT_EQ(routed_away, fleet.spilled_jobs);

    if (policy != RouterPolicy::kPinnedHome) {
      // Fleet-unique ids: the route stream's id set must partition exactly
      // into the clusters' submitted-id sets, with no overlap or loss.
      std::set<JobId> routed_ids;
      for (const SchedEvent& e : fleet.route_events.events()) {
        EXPECT_TRUE(routed_ids.insert(e.job).second)
            << "job " << e.job << " routed twice";
      }
      std::set<JobId> submitted_ids;
      for (const FleetClusterResult& cluster : fleet.clusters) {
        for (const SchedEvent& e : cluster.events.events()) {
          if (e.kind == SchedEventKind::kSubmit) {
            EXPECT_TRUE(submitted_ids.insert(e.job).second)
                << "job " << e.job << " submitted on two clusters";
          }
        }
      }
      EXPECT_EQ(submitted_ids, routed_ids);
    }
  }
}

// GPU-time conservation over a fleet with the fault process and checkpoint
// I/O model on (the compressed operating point the fault golden uses), so
// every ledger term is exercised, not just allocated == useful.
TEST(FleetPropertyTest, FleetGpuTimeLedgerConserves) {
  FleetConfig config = MakeConfig(47, RouterPolicy::kSpillover);
  config.clusters = MakeSpecs(47, /*days=*/2);
  for (FleetClusterSpec& spec : config.clusters) {
    SimulationConfig& sim = spec.experiment.simulation;
    sim.fault = FaultProcessConfig::Calibrated();
    sim.fault.server_crash_mtbf_hours = 24.0 * 4;
    sim.fault.gpu_ecc_mtbf_hours = 24.0 * 6;
    sim.fault.rack_outage_mtbf_hours = 24.0 * 10;
    sim.scheduler.checkpoint_period = Minutes(30);
    sim.scheduler.checkpoint_policy = CheckpointPolicy::kCooperativeStagger;
    sim.ckpt_io.rack_bandwidth_gbps = 0.5;
    sim.ckpt_io.size_gb_per_gpu = 4.0;
  }
  const FleetResult fleet = FleetSimulation(std::move(config)).Run();

  double allocated = 0.0;
  double useful = 0.0;
  double fault_lost = 0.0;
  double overhead = 0.0;
  double stall = 0.0;
  int64_t kills = 0;
  int64_t writes = 0;
  for (const FleetClusterResult& cluster : fleet.clusters) {
    const SimulationResult& r = cluster.result;
    EXPECT_NEAR(r.GpuTimeResidual(), 0.0, 1e-6 * std::max(1.0, r.allocated_gpu_seconds))
        << cluster.name;
    allocated += r.allocated_gpu_seconds;
    useful += r.useful_gpu_seconds;
    fault_lost += r.machine_fault_lost_gpu_seconds;
    overhead += r.ckpt_overhead_gpu_seconds;
    stall += r.ckpt_stall_gpu_seconds;
    kills += r.machine_fault_kills;
    writes += r.ckpt_writes_completed;
  }
  // The fleet ledger is exactly the cluster-index-order sum.
  EXPECT_DOUBLE_EQ(fleet.allocated_gpu_seconds, allocated);
  EXPECT_DOUBLE_EQ(fleet.useful_gpu_seconds, useful);
  EXPECT_DOUBLE_EQ(fleet.machine_fault_lost_gpu_seconds, fault_lost);
  EXPECT_DOUBLE_EQ(fleet.ckpt_overhead_gpu_seconds, overhead);
  EXPECT_DOUBLE_EQ(fleet.ckpt_stall_gpu_seconds, stall);
  // And the identity holds over the sums.
  EXPECT_NEAR(fleet.useful_gpu_seconds + fleet.machine_fault_lost_gpu_seconds +
                  fleet.ckpt_overhead_gpu_seconds + fleet.ckpt_stall_gpu_seconds,
              fleet.allocated_gpu_seconds,
              1e-6 * std::max(1.0, fleet.allocated_gpu_seconds));

  // Non-vacuous: the operating point actually exercised every term.
  EXPECT_GT(fleet.allocated_gpu_seconds, 0.0);
  EXPECT_GT(kills, 0) << "fault process produced no kills";
  EXPECT_GT(writes, 0) << "checkpoint I/O model produced no writes";
  EXPECT_GT(fleet.machine_fault_lost_gpu_seconds, 0.0);
  EXPECT_GT(fleet.ckpt_overhead_gpu_seconds, 0.0);
}

// Router decision invariants, read off the route stream's recorded model
// state. Spillover picks home or the global least-loaded cluster (home
// included), so the destination's queue never exceeds home's; it only leaves
// home when home's queue exceeds the threshold. Least-loaded minimizes over
// all clusters, so the same queue inequality holds.
TEST(FleetPropertyTest, RoutingNeverPicksALongerQueueThanHome) {
  for (const RouterPolicy policy :
       {RouterPolicy::kLeastLoaded, RouterPolicy::kSpillover}) {
    SCOPED_TRACE(std::string(ToString(policy)));
    FleetConfig config = MakeConfig(67, policy);
    const int64_t threshold = config.router.spill_threshold;
    const FleetResult fleet = FleetSimulation(std::move(config)).Run();
    ASSERT_GT(fleet.route_events.size(), 0u);
    int64_t spills_seen = 0;
    for (const SchedEvent& e : fleet.route_events.events()) {
      ASSERT_GE(e.home_queue, 0);
      ASSERT_GE(e.dest_queue, 0);
      EXPECT_LE(e.dest_queue, e.home_queue)
          << "job " << e.job << " routed to a longer queue";
      if (e.cluster != e.home) {
        ++spills_seen;
        if (policy == RouterPolicy::kSpillover) {
          EXPECT_GT(e.home_queue, threshold)
              << "job " << e.job << " spilled below the threshold";
        }
      }
    }
    EXPECT_EQ(spills_seen, fleet.spilled_jobs);
  }
}

// Config validation: the constructor rejects malformed fleets loudly instead
// of routing into undefined VC indices.
TEST(FleetPropertyTest, ConstructorRejectsMalformedFleets) {
  EXPECT_THROW(FleetSimulation(FleetConfig{}), std::invalid_argument);

  FleetConfig negative = MakeConfig(3, RouterPolicy::kSpillover);
  negative.router.spill_threshold = -1;
  EXPECT_THROW(FleetSimulation(std::move(negative)), std::invalid_argument);

  // Unequal VC counts are fine when pinned (jobs never cross clusters) but
  // rejected for dynamic policies.
  FleetConfig uneven_pinned = MakeConfig(3, RouterPolicy::kPinnedHome);
  ASSERT_GT(uneven_pinned.clusters[1].experiment.workload.vcs.size(), 1u);
  uneven_pinned.clusters[1].experiment.workload.vcs.pop_back();
  uneven_pinned.clusters[1].experiment.simulation.vcs =
      uneven_pinned.clusters[1].experiment.workload.vcs;
  FleetConfig uneven_dynamic = uneven_pinned;
  uneven_dynamic.router.policy = RouterPolicy::kLeastLoaded;
  EXPECT_NO_THROW(FleetSimulation(std::move(uneven_pinned)));
  EXPECT_THROW(FleetSimulation(std::move(uneven_dynamic)), std::invalid_argument);
}

}  // namespace
}  // namespace philly
