// Cluster topology and GPU allocation state.
//
// Mirrors the Philly deployment described in §2.2/§2.4 of the paper: servers
// carry either 2 or 8 GPUs of the same model, servers are grouped into racks,
// and each rack is an RDMA (InfiniBand) domain — workers placed within one
// rack synchronize over the 100 Gbps fabric, across racks over Ethernet.
// Host CPU cores and memory are allocated proportionally to requested GPUs
// (§2.3). The Cluster does not track them: the host model
// (src/telemetry/host_model.h) and the philly-traces exporter's CPU and memory
// rows derive a job's share from its GPUs.
//
// The Cluster owns allocation bookkeeping only; policy (which servers to pick)
// lives in src/sched.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace philly {

using ServerId = int32_t;
using RackId = int32_t;
using JobId = int64_t;

inline constexpr JobId kNoJob = -1;

// Static description of a homogeneous group of racks.
struct SkuGroup {
  int racks = 0;
  int servers_per_rack = 0;
  int gpus_per_server = 0;
};

struct ClusterConfig {
  std::vector<SkuGroup> skus;

  // Paper-like scale: thousands of GPUs, two SKUs, homogeneous racks
  // (the dominant SKU is the 8-GPU server).
  static ClusterConfig PaperScale();

  // A small cluster for unit tests and the quickstart example.
  static ClusterConfig Small();

  int TotalServers() const;
  int TotalGpus() const;
};

// One slice of a job's placement: `gpus` GPUs on one server.
struct PlacementShard {
  ServerId server = -1;
  int gpus = 0;
};

// A gang placement for one job attempt.
struct Placement {
  std::vector<PlacementShard> shards;

  int NumGpus() const;
  int NumServers() const { return static_cast<int>(shards.size()); }
  bool Empty() const { return shards.empty(); }
};

// Placement <-> "server:gpus|server:gpus" encoding shared by attempts.csv and
// the scheduler event log.
std::string EncodePlacement(const Placement& placement);
Placement DecodePlacement(std::string_view text);

// Rack ranking key for the free-capacity index: emptiest rack first, ties by
// id — the canonical deterministic order the placer's rack scans use (see
// docs/placement-index.md).
struct RackRank {
  int free = 0;
  RackId rack = -1;
  bool operator<(const RackRank& other) const {
    if (free != other.free) {
      return free > other.free;
    }
    return rack < other.rack;
  }
  bool operator==(const RackRank& other) const = default;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  int NumServers() const { return static_cast<int>(server_rack_.size()); }
  int NumRacks() const { return static_cast<int>(rack_servers_.size()); }
  int NumGpus() const { return total_gpus_; }
  int NumUsedGpus() const { return used_gpus_; }
  int NumFreeGpus() const { return total_gpus_ - used_gpus_ - offline_gpus_; }
  double Occupancy() const;

  int ServerCapacity(ServerId s) const { return server_capacity_[s]; }
  int ServerUsed(ServerId s) const { return server_used_[s]; }
  // Offline servers advertise zero free GPUs, which is all a placer (or
  // Allocate's validation) consults — no separate health check needed there.
  int ServerFree(ServerId s) const {
    return server_offline_[s] ? 0 : server_capacity_[s] - server_used_[s];
  }
  RackId ServerRack(ServerId s) const { return server_rack_[s]; }
  const std::vector<ServerId>& ServersInRack(RackId r) const { return rack_servers_[r]; }
  int RackFreeGpus(RackId r) const { return rack_free_[r]; }
  int RackCapacity(RackId r) const { return rack_capacity_[r]; }

  // Atomically claims the shards of `placement` for `job`. Returns false (and
  // claims nothing) if any shard exceeds the free GPUs of its server, a server
  // appears twice, or the job already holds GPUs.
  bool Allocate(JobId job, const Placement& placement);

  // Releases everything `job` holds. Returns the number of GPUs freed (0 if
  // the job held nothing).
  int Release(JobId job);

  // Jobs currently holding GPUs on server `s`, with their shard sizes.
  struct Tenant {
    JobId job = kNoJob;
    int gpus = 0;
  };
  const std::vector<Tenant>& TenantsOnServer(ServerId s) const { return server_tenants_[s]; }

  // Fraction of servers with zero GPUs allocated (paper §3.1.1: at 2/3
  // occupancy fewer than 4.5% of servers are completely empty).
  double EmptyServerFraction() const;

  // Number of distinct racks that contain at least one completely empty
  // server (paper: empty servers are spread across RDMA domains).
  int RacksWithEmptyServers() const;

  // Monotone counter bumped by every successful Allocate/Release/
  // SetServerOffline. Two calls observing the same version see identical
  // free-capacity state, so placement-feasibility probes (CanPlace) against
  // an unchanged cluster can be memoized — the span tracer's eval-fail
  // refinement relies on this to stay off the scheduler's hot path.
  int64_t AllocVersion() const { return alloc_version_; }

  // Takes a server out of (or back into) service, e.g. for a machine fault.
  // The server must be drained (no tenants) before going offline; its GPUs
  // stop counting as free until it returns. No-op if already in that state.
  void SetServerOffline(ServerId s, bool offline);
  bool ServerOffline(ServerId s) const { return server_offline_[s] != 0; }
  int NumOfflineServers() const { return num_offline_; }

  // --- free-capacity index -------------------------------------------------
  // Incrementally maintained placement index (docs/placement-index.md): the
  // placer's queries ("emptiest rack", "tightest server that fits", "servers
  // of rack r with k free GPUs") resolve against these structures instead of
  // scanning and sorting all servers. Every Allocate/Release/SetServerOffline
  // updates the index in O(log n); an offline server appears in no bucket.

  // Maximal run of consecutive server ids with equal GPU capacity (one per
  // SkuGroup in practice). The single-server best-fit fold iterates groups in
  // id order, which reproduces the legacy whole-cluster scan exactly.
  struct CapacityGroup {
    ServerId first = 0;
    ServerId last = 0;  // inclusive
    int capacity = 0;
  };
  // Online servers with one exact free-GPU count, ascending id. A flat sorted
  // vector, not a std::set: buckets hold at most a rack's (or group's) worth
  // of servers, and every Allocate/Release moves servers between buckets —
  // memmove on a short contiguous array beats per-move red-black node churn,
  // and iteration order (ascending id) is identical.
  using ServerBucket = std::vector<ServerId>;

  int MaxServerCapacity() const { return max_server_capacity_; }
  // Largest single-server capacity in rack r (static; offline-independent).
  int RackMaxServerCapacity(RackId r) const { return rack_max_capacity_[r]; }
  int NumCapacityGroups() const { return static_cast<int>(groups_.size()); }
  const CapacityGroup& Group(int g) const { return groups_[static_cast<size_t>(g)]; }
  // Online servers of capacity group g with exactly `free` GPUs free.
  // `free` must be in [0, Group(g).capacity].
  const ServerBucket& GroupFreeBucket(int g, int free) const {
    return group_buckets_[static_cast<size_t>(g)][static_cast<size_t>(free)];
  }
  // Online servers of rack r with exactly `free` GPUs free.
  // `free` must be in [0, RackMaxServerCapacity(r)].
  const ServerBucket& RackFreeBucket(RackId r, int free) const {
    return rack_buckets_[static_cast<size_t>(r)][static_cast<size_t>(free)];
  }
  // All racks ordered by (free GPUs descending, id ascending), kept current
  // across allocations, releases, and offline transitions. Flat sorted vector
  // for the same reason as ServerBucket (tens of racks, re-keyed per shard).
  const std::vector<RackRank>& RankedRackIndex() const { return rack_order_; }

  // Full-rescan validation of the index against the ground-truth per-server
  // state. Returns true when every bucket, group, and rack-rank entry matches
  // a from-scratch rebuild; on mismatch returns false and describes the first
  // divergence in *error. The differential test harness calls this after
  // every mutation; sanitizer/Debug builds additionally run a cheap
  // per-mutation membership self-check inside the mutators.
  bool DebugCheckIndex(std::string* error = nullptr) const;

 private:
  // Moves server s between free-count buckets (old_free < 0: not present,
  // i.e. coming back online; new_free < 0: remove, i.e. going offline).
  void IndexMoveServer(ServerId s, int old_free, int new_free);
  // Re-keys rack r in the ranked rack order.
  void IndexMoveRack(RackId r, int old_free, int new_free);
  // Cheap per-mutation invariant check (sanitizer/Debug builds only).
  void IndexSelfCheck(ServerId s) const;
  int total_gpus_ = 0;
  int used_gpus_ = 0;
  int offline_gpus_ = 0;
  int num_offline_ = 0;
  int64_t alloc_version_ = 0;
  std::vector<int> server_capacity_;
  std::vector<int> server_used_;
  std::vector<RackId> server_rack_;
  std::vector<std::vector<ServerId>> rack_servers_;
  std::vector<int> rack_capacity_;
  std::vector<int> rack_free_;
  std::vector<uint8_t> server_offline_;
  std::vector<std::vector<Tenant>> server_tenants_;
  // JobId -> shards held, in the order Allocate was given them.
  std::unordered_map<JobId, std::vector<PlacementShard>> job_shards_;

  // Free-capacity index state (see the public index section above).
  int max_server_capacity_ = 0;
  std::vector<CapacityGroup> groups_;
  std::vector<int> server_group_;
  std::vector<int> rack_max_capacity_;
  std::vector<std::vector<ServerBucket>> rack_buckets_;   // [rack][free]
  std::vector<std::vector<ServerBucket>> group_buckets_;  // [group][free]
  std::vector<RackRank> rack_order_;
};

}  // namespace philly

#endif  // SRC_CLUSTER_CLUSTER_H_
