#include "src/cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/common/strings.h"

// The per-mutation index self-check runs wherever asserts do (Debug builds)
// and in sanitizer builds (which compile with NDEBUG but define
// PHILLY_INDEX_SELF_CHECK from CMake): an index that drifts from the
// ground-truth server state would silently change placements, so the builds
// that exist to catch corruption verify every mutation. Release builds
// compile the check out of the hot path entirely.
#if !defined(NDEBUG) || defined(PHILLY_INDEX_SELF_CHECK)
#define PHILLY_INDEX_SELF_CHECK_ENABLED 1
#else
#define PHILLY_INDEX_SELF_CHECK_ENABLED 0
#endif

namespace philly {
namespace {

// Ordered-set operations on the flat sorted vectors the free-capacity index
// is built from (ServerBucket, rack_order_).
template <typename T>
void SortedInsert(std::vector<T>& v, const T& x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

template <typename T>
void SortedErase(std::vector<T>& v, const T& x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  assert(it != v.end() && *it == x);
  v.erase(it);
}

template <typename T>
bool SortedContains(const std::vector<T>& v, const T& x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace

std::string EncodePlacement(const Placement& placement) {
  std::string out;
  for (size_t i = 0; i < placement.shards.size(); ++i) {
    if (i > 0) {
      out += '|';
    }
    out += std::to_string(placement.shards[i].server);
    out += ':';
    out += std::to_string(placement.shards[i].gpus);
  }
  return out;
}

Placement DecodePlacement(std::string_view text) {
  Placement placement;
  if (text.empty()) {
    return placement;
  }
  for (std::string_view part : Split(text, '|')) {
    const auto fields = Split(part, ':');
    int64_t server = 0;
    int64_t gpus = 0;
    if (fields.size() != 2 || !ParseNumber(fields[0], &server) ||
        !ParseNumber(fields[1], &gpus)) {
      continue;
    }
    placement.shards.push_back(
        {static_cast<ServerId>(server), static_cast<int>(gpus)});
  }
  return placement;
}

ClusterConfig ClusterConfig::PaperScale() {
  // "The cluster has 2 server SKUs – one with 2 GPUs per server and another
  // with 8 GPUs per server; RDMA domains are homogeneous" (§2.4). Hundreds of
  // machines, thousands of GPUs: 15 racks x 16 x 8-GPU plus 4 racks x 24 x
  // 2-GPU = 336 servers / 2112 GPUs, sized so the 96k-job / 75-day workload's
  // realized GPU-time (~1900 busy GPUs in steady state after kills and
  // failures truncate jobs) keeps the cluster ~85% allocated with diurnal
  // peaks above 90% — the regime where gang scheduling, fragmentation, and
  // preemption dynamics all bite without starving locality entirely.
  ClusterConfig c;
  c.skus.push_back({15, 16, 8});
  c.skus.push_back({4, 24, 2});
  return c;
}

ClusterConfig ClusterConfig::Small() {
  ClusterConfig c;
  c.skus.push_back({2, 4, 8});
  c.skus.push_back({1, 4, 2});
  return c;
}

int ClusterConfig::TotalServers() const {
  int n = 0;
  for (const auto& sku : skus) {
    n += sku.racks * sku.servers_per_rack;
  }
  return n;
}

int ClusterConfig::TotalGpus() const {
  int n = 0;
  for (const auto& sku : skus) {
    n += sku.racks * sku.servers_per_rack * sku.gpus_per_server;
  }
  return n;
}

int Placement::NumGpus() const {
  int n = 0;
  for (const auto& shard : shards) {
    n += shard.gpus;
  }
  return n;
}

Cluster::Cluster(const ClusterConfig& config) {
  for (const auto& sku : config.skus) {
    assert(sku.racks > 0 && sku.servers_per_rack > 0 && sku.gpus_per_server > 0);
    for (int r = 0; r < sku.racks; ++r) {
      const RackId rack = static_cast<RackId>(rack_servers_.size());
      rack_servers_.emplace_back();
      rack_capacity_.push_back(sku.servers_per_rack * sku.gpus_per_server);
      rack_free_.push_back(rack_capacity_.back());
      for (int s = 0; s < sku.servers_per_rack; ++s) {
        const ServerId server = static_cast<ServerId>(server_capacity_.size());
        server_capacity_.push_back(sku.gpus_per_server);
        server_used_.push_back(0);
        server_rack_.push_back(rack);
        server_offline_.push_back(0);
        server_tenants_.emplace_back();
        rack_servers_[rack].push_back(server);
        total_gpus_ += sku.gpus_per_server;
      }
    }
  }

  // Build the free-capacity index: capacity groups (maximal id-runs of equal
  // capacity), per-rack static maxima, and the free-count buckets. All
  // servers start online and fully free.
  for (ServerId s = 0; s < NumServers(); ++s) {
    max_server_capacity_ = std::max(max_server_capacity_, server_capacity_[s]);
    if (groups_.empty() || groups_.back().capacity != server_capacity_[s]) {
      groups_.push_back({s, s, server_capacity_[s]});
    } else {
      groups_.back().last = s;
    }
    server_group_.push_back(static_cast<int>(groups_.size()) - 1);
  }
  rack_max_capacity_.resize(rack_servers_.size(), 0);
  rack_buckets_.resize(rack_servers_.size());
  for (RackId r = 0; r < NumRacks(); ++r) {
    for (ServerId s : rack_servers_[r]) {
      rack_max_capacity_[r] = std::max(rack_max_capacity_[r], server_capacity_[s]);
    }
    rack_buckets_[r].resize(static_cast<size_t>(rack_max_capacity_[r]) + 1);
    SortedInsert(rack_order_, {rack_free_[r], r});
  }
  group_buckets_.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    group_buckets_[g].resize(static_cast<size_t>(groups_[g].capacity) + 1);
  }
  for (ServerId s = 0; s < NumServers(); ++s) {
    IndexMoveServer(s, -1, server_capacity_[s]);
  }
}

void Cluster::IndexMoveServer(ServerId s, int old_free, int new_free) {
  auto& rack = rack_buckets_[static_cast<size_t>(server_rack_[s])];
  auto& group = group_buckets_[static_cast<size_t>(server_group_[s])];
  if (old_free >= 0) {
    SortedErase(rack[static_cast<size_t>(old_free)], s);
    SortedErase(group[static_cast<size_t>(old_free)], s);
  }
  if (new_free >= 0) {
    SortedInsert(rack[static_cast<size_t>(new_free)], s);
    SortedInsert(group[static_cast<size_t>(new_free)], s);
  }
}

void Cluster::IndexMoveRack(RackId r, int old_free, int new_free) {
  if (old_free == new_free) {
    return;
  }
  SortedErase(rack_order_, {old_free, r});
  SortedInsert(rack_order_, {new_free, r});
}

void Cluster::IndexSelfCheck(ServerId s) const {
#if PHILLY_INDEX_SELF_CHECK_ENABLED
  // Sanitizer builds define NDEBUG, so this must not rely on assert().
  const auto check = [s](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "free-capacity index self-check failed: %s (server %d)\n",
                   what, static_cast<int>(s));
      std::abort();
    }
  };
  const RackId r = server_rack_[s];
  const int free = server_capacity_[s] - server_used_[s];
  const auto& bucket = RackFreeBucket(r, free);
  const auto& gbucket =
      GroupFreeBucket(server_group_[static_cast<size_t>(s)], free);
  if (server_offline_[s] != 0) {
    check(!SortedContains(bucket, s), "offline server still in rack bucket");
    check(!SortedContains(gbucket, s), "offline server still in group bucket");
  } else {
    check(SortedContains(bucket, s), "server missing from its rack bucket");
    check(SortedContains(gbucket, s), "server missing from its group bucket");
  }
  check(SortedContains(rack_order_, {rack_free_[r], r}), "rack rank stale");
#else
  (void)s;
#endif
}

double Cluster::Occupancy() const {
  return total_gpus_ > 0 ? static_cast<double>(used_gpus_) / total_gpus_ : 0.0;
}

bool Cluster::Allocate(JobId job, const Placement& placement) {
  if (placement.Empty() || job_shards_.count(job) > 0) {
    return false;
  }
  // Validate before mutating: all-or-nothing (gang) semantics.
  for (size_t i = 0; i < placement.shards.size(); ++i) {
    const auto& shard = placement.shards[i];
    if (shard.server < 0 || shard.server >= NumServers() || shard.gpus <= 0 ||
        shard.gpus > ServerFree(shard.server)) {
      return false;
    }
    for (size_t j = 0; j < i; ++j) {
      if (placement.shards[j].server == shard.server) {
        return false;
      }
    }
  }
  for (const auto& shard : placement.shards) {
    // Validation passed, so the server is online: its pre-mutation free count
    // really is capacity - used (ServerFree would report 0 for offline).
    const int old_free = server_capacity_[shard.server] - server_used_[shard.server];
    const RackId rack = server_rack_[shard.server];
    server_used_[shard.server] += shard.gpus;
    rack_free_[rack] -= shard.gpus;
    server_tenants_[shard.server].push_back({job, shard.gpus});
    used_gpus_ += shard.gpus;
    IndexMoveServer(shard.server, old_free, old_free - shard.gpus);
    IndexMoveRack(rack, rack_free_[rack] + shard.gpus, rack_free_[rack]);
    IndexSelfCheck(shard.server);
  }
  job_shards_.emplace(job, placement.shards);
  ++alloc_version_;
  return true;
}

int Cluster::Release(JobId job) {
  const auto it = job_shards_.find(job);
  if (it == job_shards_.end()) {
    return 0;
  }
  int freed = 0;
  for (const auto& shard : it->second) {
    // A holding server cannot be offline (SetServerOffline requires a drain),
    // so its bucketed free count is capacity - used.
    const int old_free = server_capacity_[shard.server] - server_used_[shard.server];
    const RackId rack = server_rack_[shard.server];
    server_used_[shard.server] -= shard.gpus;
    rack_free_[rack] += shard.gpus;
    used_gpus_ -= shard.gpus;
    freed += shard.gpus;
    auto& tenants = server_tenants_[shard.server];
    tenants.erase(std::remove_if(tenants.begin(), tenants.end(),
                                 [job](const Tenant& t) { return t.job == job; }),
                  tenants.end());
    IndexMoveServer(shard.server, old_free, old_free + shard.gpus);
    IndexMoveRack(rack, rack_free_[rack] - shard.gpus, rack_free_[rack]);
    IndexSelfCheck(shard.server);
  }
  job_shards_.erase(it);
  ++alloc_version_;
  return freed;
}

double Cluster::EmptyServerFraction() const {
  if (server_used_.empty()) {
    return 0.0;
  }
  int empty = 0;
  for (size_t s = 0; s < server_used_.size(); ++s) {
    // An offline server is not "empty but available" — it contributes nothing
    // to the fragmentation the paper measures.
    if (server_used_[s] == 0 && server_offline_[s] == 0) {
      ++empty;
    }
  }
  return static_cast<double>(empty) / static_cast<double>(server_used_.size());
}

int Cluster::RacksWithEmptyServers() const {
  int racks = 0;
  for (const auto& servers : rack_servers_) {
    for (ServerId s : servers) {
      if (server_used_[s] == 0 && server_offline_[s] == 0) {
        ++racks;
        break;
      }
    }
  }
  return racks;
}

void Cluster::SetServerOffline(ServerId s, bool offline) {
  assert(s >= 0 && s < NumServers());
  if (ServerOffline(s) == offline) {
    return;
  }
  const RackId rack = server_rack_[s];
  const int old_rack_free = rack_free_[rack];
  if (offline) {
    // Callers must evict tenants first; taking capacity away under a running
    // gang would corrupt the used/free bookkeeping.
    assert(server_used_[s] == 0);
    server_offline_[s] = 1;
    rack_free_[rack] -= server_capacity_[s];
    offline_gpus_ += server_capacity_[s];
    ++num_offline_;
    // Leaves every bucket: an offline server is never a placement candidate.
    IndexMoveServer(s, server_capacity_[s] - server_used_[s], -1);
  } else {
    server_offline_[s] = 0;
    rack_free_[rack] += server_capacity_[s];
    offline_gpus_ -= server_capacity_[s];
    --num_offline_;
    IndexMoveServer(s, -1, server_capacity_[s] - server_used_[s]);
  }
  IndexMoveRack(rack, old_rack_free, rack_free_[rack]);
  IndexSelfCheck(s);
  ++alloc_version_;
}

bool Cluster::DebugCheckIndex(std::string* error) const {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  // Rebuild every structure from the ground-truth per-server state and
  // compare. O(servers log servers): test/validation use only.
  std::vector<std::vector<ServerBucket>> want_rack(rack_servers_.size());
  std::vector<std::vector<ServerBucket>> want_group(groups_.size());
  for (RackId r = 0; r < NumRacks(); ++r) {
    want_rack[static_cast<size_t>(r)].resize(
        static_cast<size_t>(rack_max_capacity_[r]) + 1);
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    want_group[g].resize(static_cast<size_t>(groups_[g].capacity) + 1);
  }
  int want_max_cap = 0;
  for (ServerId s = 0; s < NumServers(); ++s) {
    want_max_cap = std::max(want_max_cap, server_capacity_[s]);
    const int g = server_group_[static_cast<size_t>(s)];
    if (s < groups_[static_cast<size_t>(g)].first ||
        s > groups_[static_cast<size_t>(g)].last ||
        server_capacity_[s] != groups_[static_cast<size_t>(g)].capacity) {
      return fail("server " + std::to_string(s) + " mapped to wrong capacity group");
    }
    if (server_offline_[s] != 0) {
      continue;  // offline servers belong to no bucket
    }
    const int free = server_capacity_[s] - server_used_[s];
    if (free < 0 || free > server_capacity_[s]) {
      return fail("server " + std::to_string(s) + " has impossible free count " +
                  std::to_string(free));
    }
    // Ascending server-id iteration keeps the rebuilt buckets sorted.
    want_rack[static_cast<size_t>(server_rack_[s])][static_cast<size_t>(free)]
        .push_back(s);
    want_group[static_cast<size_t>(g)][static_cast<size_t>(free)].push_back(s);
  }
  if (want_max_cap != max_server_capacity_) {
    return fail("stale max server capacity");
  }
  for (RackId r = 0; r < NumRacks(); ++r) {
    for (int f = 0; f <= rack_max_capacity_[r]; ++f) {
      if (RackFreeBucket(r, f) !=
          want_rack[static_cast<size_t>(r)][static_cast<size_t>(f)]) {
        return fail("rack " + std::to_string(r) + " bucket free=" +
                    std::to_string(f) + " diverges from rescan");
      }
    }
    // Rack free must equal the sum of online server frees.
    int sum = 0;
    for (ServerId s : rack_servers_[r]) {
      if (server_offline_[s] == 0) {
        sum += server_capacity_[s] - server_used_[s];
      }
    }
    if (sum != rack_free_[r]) {
      return fail("rack " + std::to_string(r) + " free count " +
                  std::to_string(rack_free_[r]) + " != online-server sum " +
                  std::to_string(sum));
    }
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (int f = 0; f <= groups_[g].capacity; ++f) {
      if (GroupFreeBucket(static_cast<int>(g), f) !=
          want_group[g][static_cast<size_t>(f)]) {
        return fail("capacity group " + std::to_string(g) + " bucket free=" +
                    std::to_string(f) + " diverges from rescan");
      }
    }
  }
  std::vector<RackRank> want_order;
  want_order.reserve(rack_servers_.size());
  for (RackId r = 0; r < NumRacks(); ++r) {
    want_order.push_back({rack_free_[r], r});
  }
  std::sort(want_order.begin(), want_order.end());
  if (want_order != rack_order_) {
    return fail("ranked rack order diverges from rescan");
  }
  return true;
}

}  // namespace philly
