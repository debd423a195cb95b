// Test oracle for LocalityPlacer: the original full-scan placement search,
// which sorts racks and servers from scratch on every query.
//
// ScanPlacement answers FindPlacement's question for the same cluster state
// and PlacerConfig, visiting candidates in the canonical orders placement.h
// documents. tests/placement_index_diff_test.cc requires the index-backed
// placer to return the same shards in the same order, and bench/oracle_gate
// times one against the other.

#ifndef TESTS_REFERENCE_SCAN_PLACER_H_
#define TESTS_REFERENCE_SCAN_PLACER_H_

#include <algorithm>
#include <cassert>
#include <optional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sched/placement.h"

namespace philly {
namespace scan_placer {

// Racks ordered emptiest-first (by free GPUs, descending), ties by id for
// determinism.
inline std::vector<RackId> RankedRacks(const Cluster& cluster) {
  std::vector<RackId> racks(static_cast<size_t>(cluster.NumRacks()));
  for (int r = 0; r < cluster.NumRacks(); ++r) {
    racks[static_cast<size_t>(r)] = r;
  }
  std::sort(racks.begin(), racks.end(), [&](RackId a, RackId b) {
    const int fa = cluster.RackFreeGpus(a);
    const int fb = cluster.RackFreeGpus(b);
    if (fa != fb) {
      return fa > fb;
    }
    return a < b;
  });
  return racks;
}

// Servers of one rack in the canonical order (free GPUs descending, server id
// ascending). The id tie-break is explicit so the order is a property of the
// comparator, not of stable_sort preserving ServersInRack()'s id ordering.
inline std::vector<ServerId> RankedServers(const Cluster& cluster, RackId rack) {
  std::vector<ServerId> servers = cluster.ServersInRack(rack);
  std::sort(servers.begin(), servers.end(), [&](ServerId a, ServerId b) {
    const int fa = cluster.ServerFree(a);
    const int fb = cluster.ServerFree(b);
    if (fa != fb) {
      return fa > fb;
    }
    return a < b;
  });
  return servers;
}

// Greedy shard assignment over `servers`: biggest shards first.
inline std::optional<Placement> TakeGreedy(const Cluster& cluster,
                                           const std::vector<ServerId>& servers,
                                           int gpus, int max_servers) {
  Placement placement;
  int remaining = gpus;
  for (ServerId s : servers) {
    if (remaining <= 0 || placement.NumServers() >= max_servers) {
      break;
    }
    const int take = std::min(remaining, cluster.ServerFree(s));
    if (take > 0) {
      placement.shards.push_back({s, take});
      remaining -= take;
    }
  }
  if (remaining > 0) {
    return std::nullopt;
  }
  return placement;
}

inline std::optional<Placement> PlaceOnSingleServer(const Cluster& cluster,
                                                    const PlacerConfig& config,
                                                    int gpus) {
  ServerId best = -1;
  int best_free = 0;
  for (ServerId s = 0; s < cluster.NumServers(); ++s) {
    const int free = cluster.ServerFree(s);
    if (free < gpus) {
      continue;
    }
    if (config.pack_small_jobs && gpus < cluster.ServerCapacity(s)) {
      // Best-fit: tightest server that fits, to limit fragmentation.
      if (best == -1 || free < best_free) {
        best = s;
        best_free = free;
      }
    } else {
      // Whole-server (or dedicated-placement mode): emptiest server first.
      if (best == -1 || free > best_free) {
        best = s;
        best_free = free;
      }
    }
  }
  if (best == -1) {
    return std::nullopt;
  }
  Placement placement;
  placement.shards.push_back({best, gpus});
  return placement;
}

inline std::optional<Placement> PlaceInSingleRack(const Cluster& cluster,
                                                  const PlacerConfig& config,
                                                  int gpus, bool min_servers) {
  for (RackId rack : RankedRacks(cluster)) {
    if (cluster.RackFreeGpus(rack) < gpus) {
      continue;
    }
    const std::vector<ServerId> servers = RankedServers(cluster, rack);
    if (min_servers) {
      // Strict: only fully-free (or max-capacity-free) shards so the job uses
      // the theoretical minimum number of servers in this rack.
      int max_cap = 0;
      for (ServerId s : servers) {
        max_cap = std::max(max_cap, cluster.ServerCapacity(s));
      }
      const int needed = (gpus + max_cap - 1) / max_cap;
      auto placement = TakeGreedy(cluster, servers, gpus, needed);
      if (placement.has_value()) {
        return placement;
      }
      continue;
    }
    auto placement = TakeGreedy(cluster, servers, gpus, config.max_spread_servers);
    if (placement.has_value()) {
      return placement;
    }
  }
  return std::nullopt;
}

inline std::optional<Placement> PlaceAnywhere(const Cluster& cluster,
                                              const PlacerConfig& config, int gpus,
                                              bool min_servers) {
  // Rack-major scan, emptiest racks and servers first.
  std::vector<ServerId> servers;
  servers.reserve(static_cast<size_t>(cluster.NumServers()));
  for (RackId rack : RankedRacks(cluster)) {
    for (ServerId s : RankedServers(cluster, rack)) {
      servers.push_back(s);
    }
  }
  if (min_servers) {
    // Emptiest-first across everything minimizes server count greedily. The
    // comparator spells out the full canonical key — (free desc, rack free
    // desc, rack id asc, server id asc) — which is exactly what stable-sorting
    // the rack-major list by free GPUs used to produce implicitly.
    std::sort(servers.begin(), servers.end(), [&](ServerId a, ServerId b) {
      const int fa = cluster.ServerFree(a);
      const int fb = cluster.ServerFree(b);
      if (fa != fb) {
        return fa > fb;
      }
      const RackId ra = cluster.ServerRack(a);
      const RackId rb = cluster.ServerRack(b);
      const int rfa = cluster.RackFreeGpus(ra);
      const int rfb = cluster.RackFreeGpus(rb);
      if (rfa != rfb) {
        return rfa > rfb;
      }
      if (ra != rb) {
        return ra < rb;
      }
      return a < b;
    });
  }
  return TakeGreedy(cluster, servers, gpus, config.max_spread_servers);
}

}  // namespace scan_placer

// The full-scan answer to LocalityPlacer(config).FindPlacement(cluster, gpus,
// relax_level).
inline std::optional<Placement> ScanPlacement(const Cluster& cluster,
                                              const PlacerConfig& config, int gpus,
                                              int relax_level) {
  using namespace scan_placer;
  assert(gpus > 0);
  if (gpus > cluster.NumFreeGpus()) {
    return std::nullopt;
  }
  const int max_server_cap = cluster.MaxServerCapacity();

  if (gpus <= max_server_cap) {
    // Sub-server or whole-server job: strict locality means one server.
    auto single = PlaceOnSingleServer(cluster, config, gpus);
    if (single.has_value() || relax_level == 0) {
      return single;
    }
    // Relaxed: allow spreading within a rack, then anywhere.
    if (relax_level >= 1) {
      auto in_rack = PlaceInSingleRack(cluster, config, gpus, /*min_servers=*/false);
      if (in_rack.has_value() &&
          in_rack->NumServers() <= (relax_level == 1 ? 2 : 4)) {
        return in_rack;
      }
    }
    if (relax_level >= 2) {
      // Even fully relaxed, a sub-server job never spreads beyond 4 servers:
      // shards of one or two GPUs are all overhead and no locality.
      auto anywhere = PlaceAnywhere(cluster, config, gpus, /*min_servers=*/true);
      if (anywhere.has_value() && anywhere->NumServers() <= 4) {
        return anywhere;
      }
    }
    return std::nullopt;
  }

  // Multi-server job.
  switch (relax_level) {
    case 0:
      return PlaceInSingleRack(cluster, config, gpus, /*min_servers=*/true);
    case 1:
      return PlaceInSingleRack(cluster, config, gpus, /*min_servers=*/false);
    case 2:
      return PlaceAnywhere(cluster, config, gpus, /*min_servers=*/true);
    default:
      return PlaceAnywhere(cluster, config, gpus, /*min_servers=*/false);
  }
}

}  // namespace philly

#endif  // TESTS_REFERENCE_SCAN_PLACER_H_
