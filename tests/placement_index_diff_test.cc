// Differential harness for the free-capacity placement index.
//
// The index-backed FindPlacement/CanPlace must be observably indistinguishable
// from the full-scan oracle (ScanPlacement, tests/reference/scan_placer.h) —
// not just "a valid placement" but the exact same shards in the exact same
// order, so that every downstream artifact (SimulationResult, NDJSON event
// streams, bench tables) stays byte-identical. This file drives that
// equivalence three ways:
//
//   * Randomized alloc/release/offline/online sequences over small clusters,
//     cross-checking index vs scan for a sweep of demands, relax levels, and
//     placer configurations after every mutation, and running
//     Cluster::DebugCheckIndex's full rescan each step.
//   * A fragmentation-heavy adversarial sequence that keeps many servers at
//     equal free counts, stressing the tie-break orders.
//   * Whole simulations (including machine faults, checkpointing, migration,
//     the prerun pool, and dedicated placement) whose scheduler event streams
//     are pinned by SHA-256. The committed pins are the streams these
//     configurations emitted with the full-scan placer driving the
//     simulation, which the index run matched, so they hold the index to the
//     oracle at whole-simulation scale. Only these values carry that
//     provenance: a simulation runs only the index placer, so a pin
//     regenerated after an intended scheduler change is an index-placer
//     golden, not an oracle check. The two runs without machine faults are
//     therefore also replayed event by event against the scan oracle.

#include "src/sched/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sha256.h"
#include "src/core/experiment.h"
#include "src/fault/fault_process.h"
#include "src/obs/event_log.h"
#include "tests/reference/scan_placer.h"

namespace philly {
namespace {

// Three SKUs so the single-server fold crosses capacity-group boundaries in
// both directions (8 -> 2 -> 4).
ClusterConfig MixedSkus() {
  ClusterConfig config;
  config.skus.push_back({/*racks=*/2, /*servers_per_rack=*/4, /*gpus_per_server=*/8});
  config.skus.push_back({/*racks=*/1, /*servers_per_rack=*/6, /*gpus_per_server=*/2});
  config.skus.push_back({/*racks=*/2, /*servers_per_rack=*/3, /*gpus_per_server=*/4});
  return config;
}

std::string ShardsToString(const Placement& placement) {
  return EncodePlacement(placement);
}

// Asserts the index path and the scan path agree for one query, shard for
// shard, and that CanPlace tells the same story as FindPlacement.
void ExpectSameSearch(const LocalityPlacer& placer, const Cluster& cluster,
                      int gpus, int level) {
  const auto scan = ScanPlacement(cluster, placer.config(), gpus, level);
  const auto indexed = placer.FindPlacement(cluster, gpus, level);
  ASSERT_EQ(scan.has_value(), indexed.has_value())
      << "gpus=" << gpus << " level=" << level;
  if (scan.has_value()) {
    ASSERT_EQ(ShardsToString(*scan), ShardsToString(*indexed))
        << "gpus=" << gpus << " level=" << level;
  }
  ASSERT_EQ(placer.CanPlace(cluster, gpus, level), indexed.has_value())
      << "gpus=" << gpus << " level=" << level;
}

void CheckIndex(const Cluster& cluster) {
  std::string error;
  ASSERT_TRUE(cluster.DebugCheckIndex(&error)) << error;
}

// The placer configurations the simulator actually uses: the default packing
// placer, the §5 dedicated-servers ablation, and a tight spread cap.
std::vector<LocalityPlacer> PlacerVariants() {
  std::vector<LocalityPlacer> placers;
  placers.emplace_back();
  PlacerConfig dedicated;
  dedicated.pack_small_jobs = false;
  placers.emplace_back(dedicated);
  PlacerConfig tight;
  tight.max_spread_servers = 3;
  placers.emplace_back(tight);
  return placers;
}

void SweepQueries(const std::vector<LocalityPlacer>& placers,
                  const Cluster& cluster) {
  for (const LocalityPlacer& placer : placers) {
    for (int gpus : {1, 2, 3, 5, 8, 9, 16, 24}) {
      for (int level = 0; level <= kMaxRelaxLevel; ++level) {
        ExpectSameSearch(placer, cluster, gpus, level);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

class RandomizedDiff
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(RandomizedDiff, IndexMatchesScanUnderChurn) {
  const auto [seed, mixed] = GetParam();
  Rng rng(seed);
  Cluster cluster(mixed ? MixedSkus() : ClusterConfig::Small());
  const std::vector<LocalityPlacer> placers = PlacerVariants();
  const LocalityPlacer& allocator = placers.front();

  JobId next = 1;
  std::vector<JobId> held;
  std::vector<ServerId> offline;
  for (int step = 0; step < 700; ++step) {
    const double roll = rng.Uniform();
    if (roll < 0.45) {
      // Allocate through the index path; the sweep below already proved it
      // equal to the scan for every (gpus, level) pair this can draw.
      const int gpus = static_cast<int>(rng.Between(1, 20));
      const int level = static_cast<int>(rng.Between(0, kMaxRelaxLevel));
      const auto placement = allocator.FindPlacement(cluster, gpus, level);
      if (placement.has_value()) {
        ASSERT_TRUE(cluster.Allocate(next, *placement));
        held.push_back(next++);
      }
    } else if (roll < 0.80) {
      if (!held.empty()) {
        const size_t pick = rng.Below(held.size());
        cluster.Release(held[pick]);
        held.erase(held.begin() + static_cast<long>(pick));
      }
    } else if (roll < 0.90) {
      // Machine fault: kill every tenant of a random server (the simulator
      // releases gangs before draining the machine), then take it offline.
      const ServerId victim =
          static_cast<ServerId>(rng.Below(static_cast<uint64_t>(cluster.NumServers())));
      if (!cluster.ServerOffline(victim)) {
        while (!cluster.TenantsOnServer(victim).empty()) {
          const JobId job = cluster.TenantsOnServer(victim).front().job;
          cluster.Release(job);
          held.erase(std::find(held.begin(), held.end(), job));
          CheckIndex(cluster);
        }
        cluster.SetServerOffline(victim, true);
        offline.push_back(victim);
      }
    } else if (!offline.empty()) {
      // Repair: bring a random offline server back.
      const size_t pick = rng.Below(offline.size());
      cluster.SetServerOffline(offline[pick], false);
      offline.erase(offline.begin() + static_cast<long>(pick));
    }
    CheckIndex(cluster);
    SweepQueries(placers, cluster);
    if (HasFatalFailure()) {
      FAIL() << "diverged at step " << step << " (seed " << seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDiff,
                         ::testing::Combine(::testing::Values(3, 17, 101),
                                            ::testing::Bool()));

// Every 8-GPU server held at the same free count exercises the id tie-breaks
// (bucket iteration order) rather than the free-count ordering.
TEST(PlacementIndexDiffTest, UniformFragmentationStressesTieBreaks) {
  Cluster cluster(ClusterConfig::Small());
  const std::vector<LocalityPlacer> placers = PlacerVariants();
  JobId next = 1;
  for (int used = 1; used <= 7; ++used) {
    for (ServerId s = 0; s < cluster.NumServers(); ++s) {
      if (cluster.ServerCapacity(s) < 8) {
        continue;
      }
      Placement p;
      p.shards.push_back({s, 1});
      ASSERT_TRUE(cluster.Allocate(next++, p));
      CheckIndex(cluster);
    }
    SweepQueries(placers, cluster);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "used=" << used;
  }
}

TEST(PlacementIndexDiffTest, OfflineServersNeverSurfaceFromTheIndex) {
  Cluster cluster(ClusterConfig::Small());
  LocalityPlacer placer;
  // Take rack 0 fully offline; placements must come from the other racks and
  // both paths must agree on that.
  for (ServerId s : cluster.ServersInRack(0)) {
    cluster.SetServerOffline(s, true);
    CheckIndex(cluster);
  }
  for (int gpus : {1, 8, 16}) {
    for (int level = 0; level <= kMaxRelaxLevel; ++level) {
      ExpectSameSearch(placer, cluster, gpus, level);
      const auto placement = placer.FindPlacement(cluster, gpus, level);
      if (placement.has_value()) {
        for (const PlacementShard& shard : placement->shards) {
          EXPECT_NE(cluster.ServerRack(shard.server), 0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-simulation pins: the SHA-256 of each experiment's scheduler event
// stream, which encodes every placement. The configurations reach placer
// paths no golden covers: migration, the prerun pool, and dedicated servers.
// Each value below was computed with the scan placer driving the run (see
// the file comment); a value regenerated from the current code pins the
// index.

std::string EventStreamSha256(ExperimentConfig config) {
  EventLog log;
  config.simulation.obs.event_log = &log;
  RunExperiment(config);
  std::ostringstream out;
  log.WriteNdjson(out);
  EXPECT_FALSE(out.str().empty());
  return Sha256Hex(out.str());
}

// Replays a run's scheduler stream against the scan oracle, so the whole-run
// check outlives the pins. The cluster is rebuilt from the stream: a started
// gang allocates its recorded placement, and a later preempt, migrate,
// fault-kill, requeue or complete event for the job releases it. Every gang
// a scheduling pass started must be the one ScanPlacement picks on that
// cluster at the job's relax level, the last one logged since the job
// entered the queue. The stream does not say which servers a fault took
// down, so runs with machine faults cannot be replayed. Returns the number
// of placements checked.
int ExpectPassPlacementsMatchScan(ExperimentConfig config) {
  EventLog log;
  config.simulation.obs.event_log = &log;
  RunExperiment(config);
  Cluster cluster(config.simulation.cluster);
  std::unordered_map<JobId, int> relax_level;
  int checked = 0;
  for (const SchedEvent& e : log.events()) {
    switch (e.kind) {
      case SchedEventKind::kQueued:
        relax_level[e.job] = 0;
        break;
      case SchedEventKind::kLocalityRelax:
        relax_level[e.job] = e.relax_level;
        break;
      case SchedEventKind::kSchedule:
        if (e.detail == "pass") {
          const auto scan = ScanPlacement(cluster, config.simulation.scheduler.placer,
                                          e.gpus, relax_level[e.job]);
          EXPECT_EQ(scan.has_value() ? ShardsToString(*scan) : "no placement",
                    e.placement)
              << "job " << e.job << " at t=" << e.time;
          ++checked;
        }
        if (!e.placement.empty()) {
          cluster.Allocate(e.job, DecodePlacement(e.placement));
        }
        break;
      case SchedEventKind::kRequeue:
        relax_level[e.job] = 0;
        cluster.Release(e.job);
        break;
      case SchedEventKind::kPreempt:
      case SchedEventKind::kMigrate:
      case SchedEventKind::kFaultKill:
      case SchedEventKind::kComplete:
        cluster.Release(e.job);
        break;
      default:
        break;
    }
  }
  return checked;
}

TEST(PlacementIndexDiffTest, SimulationEventStreamMatchesScanPin) {
  EXPECT_EQ(EventStreamSha256(ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/11)),
            "b468fc3bad5c0dcd5f8a50f620c62a5de4121c8225b8d87509a7670b2d330593");
}

TEST(PlacementIndexDiffTest, SimulationWithFaultsAndMigrationMatchesScanPin) {
  ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/7);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.scheduler.checkpoint_period = Minutes(360);
  config.simulation.scheduler.enable_migration = true;
  config.simulation.scheduler.enable_prerun_pool = true;
  EXPECT_EQ(EventStreamSha256(config),
            "aec70fe4d39ae052ca073f5ee21e4ac704cffa154c0fdf526dd8736211eaaa6d");
}

TEST(PlacementIndexDiffTest, SimulationDedicatedStrictLocalityMatchesScanPin) {
  ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/9);
  config.simulation.scheduler.placer.pack_small_jobs = false;
  config.simulation.scheduler.max_relax_level = 0;
  EXPECT_EQ(EventStreamSha256(config),
            "d5f831f31a2175370dce46e2299a2a3106e7321a85aa667c5a3476d0362fdc7f");
}

TEST(PlacementIndexDiffTest, SimulationPlacementsReplayAgainstScan) {
  EXPECT_GT(ExpectPassPlacementsMatchScan(
                ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/11)),
            1000);
}

TEST(PlacementIndexDiffTest, DedicatedStrictLocalityPlacementsReplayAgainstScan) {
  ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/9);
  config.simulation.scheduler.placer.pack_small_jobs = false;
  config.simulation.scheduler.max_relax_level = 0;
  EXPECT_GT(ExpectPassPlacementsMatchScan(config), 1000);
}

}  // namespace
}  // namespace philly
