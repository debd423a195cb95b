#include "src/telemetry/util_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/workload/model_zoo.h"

namespace philly {
namespace {

// sigma1: asymptotic fraction of time lost to cross-server model
// aggregation for a comm_intensity-1.0 model. Fitted from DiffServer:
// 1 - 0.2808 * (1 - 1/2) = 0.8596.
constexpr double kDistSyncCoeff = 0.2808;
// Gangs larger than the 2-GPU calibration point push more gradient traffic
// per aggregation round: effective comm intensity grows with
// log2(num_gpus / 2). Fitted so a 16-GPU job on two dedicated servers lands
// near Table 5's 43.7% (and Fig 6's qualitative gap to 8-GPU jobs).
constexpr double kGangSizeCommGrowth = 0.27;
// PCIe contention: factor = 1 - kPcieCoeff * min(load, kPcieLoadCap).
constexpr double kPcieCoeff = 0.85;
constexpr double kPcieLoadCap = 0.60;
// RDMA/network contention for distributed jobs on shared servers.
constexpr double kNetCoeff = 0.27;
constexpr double kNetLoadCap = 1.0;
// 1-GPU co-tenants exercise PCIe only for input loading, not gradient
// exchange; their contribution to neighbor load is discounted.
constexpr double kSingleGpuCommDiscount = 0.25;

}  // namespace

double UtilizationModel::DistributionPenalty(int num_servers, double comm_intensity,
                                             int num_gpus) const {
  assert(num_servers >= 1);
  if (num_servers <= 1) {
    return 1.0;
  }
  const double spread = 1.0 - 1.0 / static_cast<double>(num_servers);
  const double gang_growth =
      num_gpus > 2 ? 1.0 + kGangSizeCommGrowth *
                               std::log2(static_cast<double>(num_gpus) / 2.0)
                   : 1.0;
  return std::max(
      0.05, 1.0 - kDistSyncCoeff * comm_intensity * gang_growth * spread);
}

double UtilizationModel::ShardUtilization(double base_after_dist,
                                          const ShardContext& shard) const {
  const double pcie = std::min(shard.pcie_load, kPcieLoadCap);
  const double net = std::min(shard.net_load, kNetLoadCap);
  const double factor =
      (1.0 - kPcieCoeff * pcie) * (1.0 - kNetCoeff * net);
  return std::clamp(base_after_dist * factor, 0.0, 1.0);
}

double UtilizationModel::ActivityOf(const JobActivity& activity) const {
  return activity.base_utilization * DistributionPenalty(activity.num_servers,
                                                         activity.comm_intensity,
                                                         activity.num_gpus);
}

double UtilizationModel::NeighborLoadShare(const JobActivity& cotenant,
                                           int cotenant_shard_gpus,
                                           int server_capacity) const {
  assert(server_capacity > 0);
  const double share =
      static_cast<double>(cotenant_shard_gpus) / static_cast<double>(server_capacity);
  const double discount =
      cotenant.num_gpus <= 1 ? kSingleGpuCommDiscount : 1.0;
  return share * ActivityOf(cotenant) * cotenant.comm_intensity * discount;
}

double UtilizationModel::ExpectedUtilization(
    const JobSpec& job, const Placement& placement, const Cluster& cluster,
    FunctionRef<JobActivity(JobId)> activity_of) const {
  if (placement.Empty()) {
    return 0.0;
  }
  const ModelProfile& profile = ProfileOf(job.model);
  const double base_after_dist =
      job.base_utilization * DistributionPenalty(placement.NumServers(),
                                                 profile.comm_intensity, job.num_gpus);

  double weighted = 0.0;
  int total_gpus = 0;
  for (const auto& shard : placement.shards) {
    ShardContext ctx;
    ctx.shard_gpus = shard.gpus;
    ctx.server_capacity = cluster.ServerCapacity(shard.server);
    for (const auto& tenant : cluster.TenantsOnServer(shard.server)) {
      if (tenant.job == job.id) {
        continue;
      }
      const JobActivity cotenant = activity_of(tenant.job);
      const double load = NeighborLoadShare(cotenant, tenant.gpus, ctx.server_capacity);
      ctx.pcie_load += load;
      if (cotenant.num_servers > 1) {
        ctx.net_load += load;
      }
    }
    weighted += ShardUtilization(base_after_dist, ctx) * shard.gpus;
    total_gpus += shard.gpus;
  }
  return total_gpus > 0 ? weighted / static_cast<double>(total_gpus) : 0.0;
}

double UtilizationModel::ImagesPerSecond(const JobSpec& job, double utilization) const {
  const ModelProfile& profile = ProfileOf(job.model);
  if (profile.images_per_sec_at_full_util <= 0.0) {
    return 0.0;
  }
  return profile.images_per_sec_at_full_util * utilization * job.num_gpus;
}

}  // namespace philly
