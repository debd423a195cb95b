// Property-based placement tests over randomized cluster states. Apart from
// matching the full-scan oracle exactly (placement_index_diff_test.cc), any
// placement LocalityPlacer returns must satisfy the placement contract:
//
//   * shards sum to exactly the requested GPU count;
//   * no shard exceeds its server's free capacity, and no server repeats,
//     so Cluster::Allocate accepts the gang verbatim;
//   * the spread caps hold: never more than max_spread_servers, at most 2
//     servers at relax level 1 and 4 at levels >= 2 for sub-server jobs;
//   * level 0 for jobs up to one server's capacity means exactly one server,
//     and levels <= 1 never cross an RDMA (rack) boundary;
//   * offline servers are never chosen.

#include "src/sched/placement.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.h"

namespace philly {
namespace {

ClusterConfig MixedSkus() {
  ClusterConfig config;
  config.skus.push_back({/*racks=*/2, /*servers_per_rack=*/4, /*gpus_per_server=*/8});
  config.skus.push_back({/*racks=*/1, /*servers_per_rack=*/6, /*gpus_per_server=*/2});
  config.skus.push_back({/*racks=*/2, /*servers_per_rack=*/3, /*gpus_per_server=*/4});
  return config;
}

// Applies random load and takes a few servers offline so searches see
// fragmentation, full servers, and missing machines.
void Churn(Rng& rng, Cluster& cluster, const LocalityPlacer& placer) {
  JobId next = 1;
  std::vector<JobId> held;
  for (int i = 0; i < 60; ++i) {
    const int gpus = static_cast<int>(rng.Between(1, 16));
    const auto placement =
        placer.FindPlacement(cluster, gpus, static_cast<int>(rng.Between(0, 3)));
    if (placement.has_value()) {
      ASSERT_TRUE(cluster.Allocate(next, *placement));
      held.push_back(next++);
    }
    if (!held.empty() && rng.Bernoulli(0.4)) {
      const size_t pick = rng.Below(held.size());
      cluster.Release(held[pick]);
      held.erase(held.begin() + static_cast<long>(pick));
    }
  }
  for (int i = 0; i < 2; ++i) {
    const ServerId victim =
        static_cast<ServerId>(rng.Below(static_cast<uint64_t>(cluster.NumServers())));
    if (!cluster.ServerOffline(victim)) {
      while (!cluster.TenantsOnServer(victim).empty()) {
        cluster.Release(cluster.TenantsOnServer(victim).front().job);
      }
      cluster.SetServerOffline(victim, true);
    }
  }
}

void CheckPlacementContract(const Cluster& cluster, const PlacerConfig& config,
                            const Placement& placement, int gpus, int level,
                            int max_server_cap) {
  EXPECT_EQ(placement.NumGpus(), gpus);
  EXPECT_LE(placement.NumServers(), config.max_spread_servers);
  std::set<ServerId> servers;
  std::set<RackId> racks;
  for (const PlacementShard& shard : placement.shards) {
    EXPECT_GT(shard.gpus, 0);
    EXPECT_LE(shard.gpus, cluster.ServerFree(shard.server));
    EXPECT_FALSE(cluster.ServerOffline(shard.server));
    EXPECT_TRUE(servers.insert(shard.server).second)
        << "server " << shard.server << " repeated";
    racks.insert(cluster.ServerRack(shard.server));
  }
  if (level <= 1) {
    EXPECT_EQ(racks.size(), 1u) << "level " << level << " crossed racks";
  }
  if (gpus <= max_server_cap) {
    // Sub-server / whole-server jobs: the relaxation ladder caps the spread.
    if (level == 0) {
      EXPECT_EQ(placement.NumServers(), 1);
    } else if (level == 1) {
      EXPECT_LE(placement.NumServers(), 2);
    } else {
      EXPECT_LE(placement.NumServers(), 4);
    }
  }
  // The gang must be allocatable exactly as returned.
  Cluster copy = cluster;
  EXPECT_TRUE(copy.Allocate(999999, placement));
}

class PlacementProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(PlacementProperty, PlacementsSatisfyTheContract) {
  const auto [seed, mixed] = GetParam();
  Rng rng(seed);
  Cluster cluster(mixed ? MixedSkus() : ClusterConfig::Small());

  for (const PlacerConfig& config :
       {PlacerConfig{}, PlacerConfig{/*pack_small_jobs=*/false, 16},
        PlacerConfig{true, /*max_spread_servers=*/3}}) {
    const LocalityPlacer placer(config);
    Cluster state = cluster;
    Churn(rng, state, placer);
    const int max_server_cap = state.MaxServerCapacity();
    for (int gpus : {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 24, 32}) {
      for (int level = 0; level <= kMaxRelaxLevel; ++level) {
        const auto placement = placer.FindPlacement(state, gpus, level);
        EXPECT_EQ(placer.CanPlace(state, gpus, level), placement.has_value());
        if (placement.has_value()) {
          CheckPlacementContract(state, config, *placement, gpus, level,
                                 max_server_cap);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementProperty,
                         ::testing::Combine(::testing::Values(5, 23, 59, 127),
                                            ::testing::Bool()));

// Demands above the free total (or above what any relax level could gather)
// must fail without touching the cluster.
TEST(PlacementPropertyTest, InfeasibleDemandsFailCleanly) {
  const LocalityPlacer placer;
  Cluster cluster(ClusterConfig::Small());
  EXPECT_FALSE(placer.FindPlacement(cluster, cluster.NumGpus() + 1, 3).has_value());
  EXPECT_FALSE(placer.CanPlace(cluster, cluster.NumGpus() + 1, 3));
  // Entirely offline cluster: nothing is placeable.
  for (ServerId s = 0; s < cluster.NumServers(); ++s) {
    cluster.SetServerOffline(s, true);
  }
  for (int level = 0; level <= kMaxRelaxLevel; ++level) {
    EXPECT_FALSE(placer.FindPlacement(cluster, 1, level).has_value());
  }
}

}  // namespace
}  // namespace philly
