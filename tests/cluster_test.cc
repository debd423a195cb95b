#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace philly {
namespace {

TEST(ClusterConfigTest, PaperScaleShape) {
  const auto config = ClusterConfig::PaperScale();
  EXPECT_EQ(config.TotalGpus(), 2112);
  EXPECT_EQ(config.TotalServers(), 336);
  // Two SKUs, 8-GPU and 2-GPU, per the paper.
  ASSERT_EQ(config.skus.size(), 2u);
  EXPECT_EQ(config.skus[0].gpus_per_server, 8);
  EXPECT_EQ(config.skus[1].gpus_per_server, 2);
}

TEST(ClusterTest, TopologyConstruction) {
  Cluster cluster(ClusterConfig::Small());
  EXPECT_EQ(cluster.NumRacks(), 3);
  EXPECT_EQ(cluster.NumServers(), 12);
  EXPECT_EQ(cluster.NumGpus(), 2 * 4 * 8 + 4 * 2);
  EXPECT_EQ(cluster.NumFreeGpus(), cluster.NumGpus());
  EXPECT_EQ(cluster.RackCapacity(0), 32);
  EXPECT_EQ(cluster.RackCapacity(2), 8);
  // RDMA domains are homogeneous in SKU.
  for (ServerId s : cluster.ServersInRack(2)) {
    EXPECT_EQ(cluster.ServerCapacity(s), 2);
  }
}

TEST(ClusterTest, AllocateAndRelease) {
  Cluster cluster(ClusterConfig::Small());
  Placement p;
  p.shards.push_back({0, 4});
  p.shards.push_back({1, 4});
  EXPECT_TRUE(cluster.Allocate(7, p));
  EXPECT_EQ(cluster.NumUsedGpus(), 8);
  EXPECT_EQ(cluster.ServerUsed(0), 4);
  EXPECT_EQ(cluster.ServerFree(1), 4);
  EXPECT_EQ(cluster.RackFreeGpus(0), 24);
  ASSERT_EQ(cluster.TenantsOnServer(1).size(), 1u);
  EXPECT_EQ(cluster.TenantsOnServer(1)[0].job, 7);
  EXPECT_EQ(cluster.Release(7), 8);
  EXPECT_EQ(cluster.NumUsedGpus(), 0);
  EXPECT_TRUE(cluster.TenantsOnServer(1).empty());
  EXPECT_EQ(cluster.Release(7), 0);  // holds nothing any more
}

TEST(ClusterTest, GangAllocationIsAtomic) {
  Cluster cluster(ClusterConfig::Small());
  Placement over;
  over.shards.push_back({0, 8});
  over.shards.push_back({1, 9});  // exceeds server capacity
  EXPECT_FALSE(cluster.Allocate(1, over));
  EXPECT_EQ(cluster.NumUsedGpus(), 0);  // nothing leaked
}

TEST(ClusterTest, RejectsDuplicateServerInPlacement) {
  Cluster cluster(ClusterConfig::Small());
  Placement p;
  p.shards.push_back({0, 4});
  p.shards.push_back({0, 4});
  EXPECT_FALSE(cluster.Allocate(1, p));
  EXPECT_EQ(cluster.NumUsedGpus(), 0);
}

TEST(ClusterTest, RejectsDoubleAllocationForSameJob) {
  Cluster cluster(ClusterConfig::Small());
  Placement p;
  p.shards.push_back({0, 2});
  EXPECT_TRUE(cluster.Allocate(1, p));
  EXPECT_FALSE(cluster.Allocate(1, p));
  EXPECT_EQ(cluster.NumUsedGpus(), 2);
}

TEST(ClusterTest, ReleaseUnknownJobIsNoop) {
  Cluster cluster(ClusterConfig::Small());
  EXPECT_EQ(cluster.Release(99), 0);
}

TEST(ClusterTest, TenantsTracked) {
  Cluster cluster(ClusterConfig::Small());
  Placement a;
  a.shards.push_back({0, 2});
  Placement b;
  b.shards.push_back({0, 3});
  ASSERT_TRUE(cluster.Allocate(1, a));
  ASSERT_TRUE(cluster.Allocate(2, b));
  const auto& tenants = cluster.TenantsOnServer(0);
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].job, 1);
  EXPECT_EQ(tenants[0].gpus, 2);
  EXPECT_EQ(tenants[1].job, 2);
  cluster.Release(1);
  ASSERT_EQ(cluster.TenantsOnServer(0).size(), 1u);
  EXPECT_EQ(cluster.TenantsOnServer(0)[0].job, 2);
}

TEST(ClusterTest, ReleaseFreesShardsGivenOutOfServerOrder) {
  Cluster cluster(ClusterConfig::Small());
  Placement p;
  p.shards.push_back({3, 1});
  p.shards.push_back({1, 2});
  ASSERT_TRUE(cluster.Allocate(5, p));
  EXPECT_EQ(cluster.Release(5), 3);
  EXPECT_EQ(cluster.ServerFree(1), cluster.ServerCapacity(1));
  EXPECT_EQ(cluster.ServerFree(3), cluster.ServerCapacity(3));
  EXPECT_EQ(cluster.NumFreeGpus(), cluster.NumGpus());
}

TEST(ClusterTest, FragmentationMetrics) {
  Cluster cluster(ClusterConfig::Small());
  EXPECT_DOUBLE_EQ(cluster.EmptyServerFraction(), 1.0);
  EXPECT_EQ(cluster.RacksWithEmptyServers(), 3);
  // Put one GPU on every server: no server empty.
  for (ServerId s = 0; s < cluster.NumServers(); ++s) {
    Placement p;
    p.shards.push_back({s, 1});
    ASSERT_TRUE(cluster.Allocate(100 + s, p));
  }
  EXPECT_DOUBLE_EQ(cluster.EmptyServerFraction(), 0.0);
  EXPECT_EQ(cluster.RacksWithEmptyServers(), 0);
}

TEST(ClusterTest, OccupancyFraction) {
  Cluster cluster(ClusterConfig::Small());
  Placement p;
  p.shards.push_back({0, 8});
  ASSERT_TRUE(cluster.Allocate(1, p));
  EXPECT_NEAR(cluster.Occupancy(), 8.0 / 72.0, 1e-12);
}

// Property: random allocate/release sequences conserve GPU accounting.
class ClusterFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterFuzz, ConservationUnderRandomOps) {
  Cluster cluster(ClusterConfig::Small());
  Rng rng(GetParam());
  // The jobs holding GPUs, with the GPUs each placement claimed.
  std::vector<std::pair<JobId, int>> held;
  int expected_used = 0;

  for (int step = 0; step < 2000; ++step) {
    if (rng.Bernoulli(0.6)) {
      // Try an allocation on a random server set.
      Placement p;
      const int shards = static_cast<int>(rng.Between(1, 3));
      for (int i = 0; i < shards; ++i) {
        const auto server = static_cast<ServerId>(rng.Below(
            static_cast<uint64_t>(cluster.NumServers())));
        const int want = static_cast<int>(rng.Between(1, 4));
        p.shards.push_back({server, want});
      }
      const JobId id = step + 1;
      const int gpus = p.NumGpus();
      if (cluster.Allocate(id, p)) {
        held.emplace_back(id, gpus);
        expected_used += gpus;
      }
    } else if (!held.empty()) {
      const size_t pick = rng.Below(held.size());
      const auto [id, gpus] = held[pick];
      EXPECT_EQ(cluster.Release(id), gpus);
      expected_used -= gpus;
      held.erase(held.begin() + static_cast<long>(pick));
    }
    ASSERT_EQ(cluster.NumUsedGpus(), expected_used);
    ASSERT_GE(cluster.NumFreeGpus(), 0);
    // Per-server and per-rack invariants.
    int sum_used = 0;
    for (ServerId s = 0; s < cluster.NumServers(); ++s) {
      ASSERT_GE(cluster.ServerUsed(s), 0);
      ASSERT_LE(cluster.ServerUsed(s), cluster.ServerCapacity(s));
      sum_used += cluster.ServerUsed(s);
    }
    ASSERT_EQ(sum_used, expected_used);
    int rack_free_sum = 0;
    for (RackId r = 0; r < cluster.NumRacks(); ++r) {
      rack_free_sum += cluster.RackFreeGpus(r);
    }
    ASSERT_EQ(rack_free_sum, cluster.NumFreeGpus());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterFuzz,
                         ::testing::Values(3, 17, 71, 333, 9001));

}  // namespace
}  // namespace philly
