#include "src/sched/placement.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace philly {
namespace {

// Greedy shard assignment, biggest shards first: callers feed it candidate
// servers in the canonical order and it stops once the demand is met or the
// server cap is reached.
struct GreedyTake {
  int remaining = 0;
  int max_servers = 0;
  std::vector<PlacementShard> shards;

  bool Full() const {
    return remaining <= 0 || static_cast<int>(shards.size()) >= max_servers;
  }
  void Take(ServerId s, int free) {
    const int take = std::min(remaining, free);
    if (take > 0) {
      shards.push_back({s, take});
      remaining -= take;
    }
  }
  // Commits the accumulated shards if the demand was met; -1 otherwise, with
  // `out` untouched either way on failure.
  int Commit(Placement* out) const {
    if (remaining > 0) {
      return -1;
    }
    if (out != nullptr) {
      out->shards.insert(out->shards.end(), shards.begin(), shards.end());
    }
    return static_cast<int>(shards.size());
  }
};

}  // namespace

LocalityPlacer::LocalityPlacer(PlacerConfig config) : config_(config) {}

// --------------------------------------------------------------------------
// Index-backed search. Every helper walks the Cluster's free-capacity buckets
// in the canonical candidate order documented in placement.h, so the shards it
// emits are byte-identical to the full-scan oracle's.

int LocalityPlacer::SingleServerIndexed(const Cluster& cluster, int gpus,
                                        Placement* out) const {
  // The scan oracle folds over servers in id order, keeping the tightest fit
  // (best-fit) for packing groups and the emptiest server otherwise, ties to
  // the lower id. Server ids are capacity-contiguous, so folding one champion
  // per capacity group in group order reproduces that fold exactly: within a
  // group the scan's winner is the lowest id in the extremal non-empty bucket.
  ServerId best = -1;
  int best_free = 0;
  for (int g = 0; g < cluster.NumCapacityGroups(); ++g) {
    const Cluster::CapacityGroup& group = cluster.Group(g);
    if (gpus > group.capacity) {
      continue;
    }
    if (config_.pack_small_jobs && gpus < group.capacity) {
      // Best-fit: tightest server that fits, to limit fragmentation.
      for (int f = gpus; f <= group.capacity; ++f) {
        const Cluster::ServerBucket& bucket = cluster.GroupFreeBucket(g, f);
        if (bucket.empty()) {
          continue;
        }
        if (best == -1 || f < best_free) {
          best = *bucket.begin();
          best_free = f;
        }
        break;
      }
    } else {
      // Whole-server (or dedicated-placement mode): emptiest server first.
      for (int f = group.capacity; f >= gpus; --f) {
        const Cluster::ServerBucket& bucket = cluster.GroupFreeBucket(g, f);
        if (bucket.empty()) {
          continue;
        }
        if (best == -1 || f > best_free) {
          best = *bucket.begin();
          best_free = f;
        }
        break;
      }
    }
  }
  if (best == -1) {
    return -1;
  }
  if (out != nullptr) {
    out->shards.push_back({best, gpus});
  }
  return 1;
}

int LocalityPlacer::SingleRackIndexed(const Cluster& cluster, int gpus,
                                      bool min_servers, Placement* out) const {
  for (const RackRank& rank : cluster.RankedRackIndex()) {
    if (rank.free < gpus) {
      // Racks are ordered free-descending: nothing further down fits either.
      break;
    }
    const RackId rack = rank.rack;
    const int rack_cap = cluster.RackMaxServerCapacity(rack);
    // Strict mode caps the job at the theoretical minimum server count for
    // this rack's SKU (static capacity, so an offline 8-GPU server still
    // implies ceil(gpus/8) — matching the scan oracle).
    const int max_servers =
        min_servers ? (gpus + rack_cap - 1) / rack_cap : config_.max_spread_servers;
    GreedyTake take{gpus, max_servers, {}};
    for (int f = rack_cap; f >= 1 && !take.Full(); --f) {
      for (ServerId s : cluster.RackFreeBucket(rack, f)) {
        if (take.Full()) {
          break;
        }
        take.Take(s, f);
      }
    }
    if (take.remaining <= 0) {
      return take.Commit(out);
    }
  }
  return -1;
}

int LocalityPlacer::AnywhereIndexed(const Cluster& cluster, int gpus,
                                    bool min_servers, Placement* out) const {
  GreedyTake take{gpus, config_.max_spread_servers, {}};
  if (min_servers) {
    // Emptiest-first across everything minimizes server count greedily:
    // (free desc, rack free desc, rack id asc, server id asc).
    for (int f = cluster.MaxServerCapacity(); f >= 1 && !take.Full(); --f) {
      for (const RackRank& rank : cluster.RankedRackIndex()) {
        if (take.Full()) {
          break;
        }
        if (f > cluster.RackMaxServerCapacity(rank.rack)) {
          continue;
        }
        for (ServerId s : cluster.RackFreeBucket(rank.rack, f)) {
          if (take.Full()) {
            break;
          }
          take.Take(s, f);
        }
      }
    }
  } else {
    // Rack-major scan, emptiest racks and servers first.
    for (const RackRank& rank : cluster.RankedRackIndex()) {
      if (take.Full()) {
        break;
      }
      for (int f = cluster.RackMaxServerCapacity(rank.rack); f >= 1 && !take.Full();
           --f) {
        for (ServerId s : cluster.RackFreeBucket(rank.rack, f)) {
          if (take.Full()) {
            break;
          }
          take.Take(s, f);
        }
      }
    }
  }
  return take.Commit(out);
}

int LocalityPlacer::SearchIndexed(const Cluster& cluster, int gpus, int relax_level,
                                  Placement* out) const {
  assert(gpus > 0);
  if (gpus > cluster.NumFreeGpus()) {
    return -1;
  }
  const int max_server_cap = cluster.MaxServerCapacity();

  if (gpus <= max_server_cap) {
    // Sub-server or whole-server job: strict locality means one server.
    const int single = SingleServerIndexed(cluster, gpus, out);
    if (single >= 0 || relax_level == 0) {
      return single;
    }
    // Relaxed: allow spreading within a rack, then anywhere. The spread caps
    // apply to the placement the search found, not as a search constraint —
    // an over-spread result fails the level rather than trying further racks.
    if (relax_level >= 1) {
      Placement tmp;
      const int n =
          SingleRackIndexed(cluster, gpus, /*min_servers=*/false, out ? &tmp : nullptr);
      if (n >= 0 && n <= (relax_level == 1 ? 2 : 4)) {
        if (out != nullptr) {
          out->shards.insert(out->shards.end(), tmp.shards.begin(), tmp.shards.end());
        }
        return n;
      }
    }
    if (relax_level >= 2) {
      // Even fully relaxed, a sub-server job never spreads beyond 4 servers:
      // shards of one or two GPUs are all overhead and no locality.
      Placement tmp;
      const int n =
          AnywhereIndexed(cluster, gpus, /*min_servers=*/true, out ? &tmp : nullptr);
      if (n >= 0 && n <= 4) {
        if (out != nullptr) {
          out->shards.insert(out->shards.end(), tmp.shards.begin(), tmp.shards.end());
        }
        return n;
      }
    }
    return -1;
  }

  // Multi-server job.
  switch (relax_level) {
    case 0:
      return SingleRackIndexed(cluster, gpus, /*min_servers=*/true, out);
    case 1:
      return SingleRackIndexed(cluster, gpus, /*min_servers=*/false, out);
    case 2:
      return AnywhereIndexed(cluster, gpus, /*min_servers=*/true, out);
    default:
      return AnywhereIndexed(cluster, gpus, /*min_servers=*/false, out);
  }
}

std::optional<Placement> LocalityPlacer::FindPlacement(const Cluster& cluster, int gpus,
                                                       int relax_level) const {
  Placement placement;
  if (SearchIndexed(cluster, gpus, relax_level, &placement) < 0) {
    return std::nullopt;
  }
  return placement;
}

bool LocalityPlacer::CanPlace(const Cluster& cluster, int gpus,
                              int relax_level) const {
  return SearchIndexed(cluster, gpus, relax_level, /*out=*/nullptr) >= 0;
}

}  // namespace philly
