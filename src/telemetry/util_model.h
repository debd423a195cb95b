// GPU utilization model (§3.2), calibrated to the paper's controlled
// ResNet-50 experiment (Table 4).
//
// A job's utilization of its (exclusively allocated) GPUs is modeled as
//
//   util = base
//        x DistributionPenalty(num_servers, comm_intensity)   [multi-server sync]
//        x (1 - kPcieCoeff * pcie_load)                       [PCIe contention]
//        x (1 - kNetCoeff * net_load)                         [RDMA contention]
//
// where `base` is the job's single-dedicated-server utilization (model family
// x batch size prior from src/workload), and the load terms aggregate the
// activity of co-tenant jobs sharing the server/fabric. Calibration points,
// all from Table 4 (ResNet-50, 2 GPUs, 4-GPU P100 servers, batch 32):
//
//   SameServer  57.7%  -> base = 0.577, no penalties
//   DiffServer  49.6%  -> DistributionPenalty(2, 1.0) = 0.8596
//   IntraServer 37.5%  -> one 2-GPU co-tenant per server: pcie factor 0.755
//   InterServer 36.5%  -> two distributed co-tenants: pcie x net factor 0.736
//
// The same mechanism extrapolated to the aggregate workload produces the
// shapes of Fig 5/6, Table 3, and Table 5 (validated in tests and benches).

#ifndef SRC_TELEMETRY_UTIL_MODEL_H_
#define SRC_TELEMETRY_UTIL_MODEL_H_

#include <span>

#include "src/cluster/cluster.h"
#include "src/common/function_ref.h"
#include "src/workload/job.h"

namespace philly {

// A co-tenant-visible summary of a running job's activity.
struct JobActivity {
  double base_utilization = 0.0;
  double comm_intensity = 1.0;
  int num_gpus = 1;
  int num_servers = 1;
};

// Per-shard contention context for the job under evaluation.
struct ShardContext {
  int shard_gpus = 0;
  int server_capacity = 1;
  double pcie_load = 0.0;  // sum of co-tenant activity shares on this server
  double net_load = 0.0;   // same, restricted to multi-server co-tenants
};

class UtilizationModel {
 public:
  // Multiplicative penalty for running on `num_servers` servers with a gang
  // of `num_gpus` workers (the default matches the 2-GPU calibration point).
  double DistributionPenalty(int num_servers, double comm_intensity,
                             int num_gpus = 2) const;

  // Utilization of the GPUs in one shard, all penalties applied.
  double ShardUtilization(double base_after_dist, const ShardContext& shard) const;

  // Activity proxy a job exposes to its neighbors: base utilization after the
  // distribution penalty (interference is deliberately not recursed — see
  // DESIGN.md).
  double ActivityOf(const JobActivity& activity) const;

  // One co-tenant shard's contribution to a neighbor's PCIe load.
  double NeighborLoadShare(const JobActivity& cotenant, int cotenant_shard_gpus,
                           int server_capacity) const;

  // Expected utilization (weighted by shard size) of `job` placed as
  // `placement` on `cluster`; `activity_of` resolves co-tenant jobs. The
  // resolver is taken by non-owning reference (this is the hottest call in a
  // scheduling-heavy run: one invocation per co-tenant per refresh).
  double ExpectedUtilization(const JobSpec& job, const Placement& placement,
                             const Cluster& cluster,
                             FunctionRef<JobActivity(JobId)> activity_of) const;

  // Training throughput (images/s across the whole job) for image models, 0
  // for models without a throughput conversion; reproduces Table 4 row 2.
  double ImagesPerSecond(const JobSpec& job, double utilization) const;
};

}  // namespace philly

#endif  // SRC_TELEMETRY_UTIL_MODEL_H_
