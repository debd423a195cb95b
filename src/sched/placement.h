// Locality-aware gang placement (§2.3).
//
// The scheduler ranks racks (RDMA domains) by increasing occupancy and
// servers within a rack the same way, so it considers the emptiest domains
// first — that is where a gang has the best chance of landing with locality.
// Small jobs are packed best-fit into partially used servers to limit
// fragmentation; whole-server and multi-server jobs take the emptiest
// servers.
//
// Locality is expressed as a relaxation level, raised by the scheduler after
// repeated failed acquisition attempts (§2.3: "locality constraints are
// relaxed after a scheduling request has been retried a fixed number of
// times"):
//   level 0 — strict: minimum possible server count, single RDMA domain
//   level 1 — single RDMA domain, any server count
//   level 2 — minimum server count per rack-major scan, domains may be mixed
//   level 3 — any free GPUs anywhere (up to a spread cap)
//
// Deterministic candidate order (the contract the free-capacity index
// reproduces bit-for-bit from the original full-scan search — see
// docs/placement-index.md):
//   racks:                (free GPUs descending, rack id ascending)
//   servers in a rack:    (free GPUs descending, server id ascending)
//   rack-major scan:      racks in rack order, each rack's servers in
//                         server order
//   emptiest-first scan:  (free GPUs descending, rack free descending,
//                         rack id ascending, server id ascending) — i.e. the
//                         rack-major scan re-sorted by free GPUs with ties
//                         broken by the rack-major position
//   single-server search: one pass over servers in id order, keeping the
//                         tightest fit (best-fit) or the emptiest server
//                         (worst-fit) depending on whether the job packs;
//                         ties keep the lower id
//
// FindPlacement resolves these orders against the Cluster's incrementally
// maintained free-capacity index in O(result) instead of scanning and
// sorting every server per call. The full-scan search is kept as a test
// oracle in tests/reference/scan_placer.h; tests/placement_index_diff_test.cc
// holds the two byte-identical over randomized alloc/release/offline
// sequences, and bench/oracle_gate times one against the other.

#ifndef SRC_SCHED_PLACEMENT_H_
#define SRC_SCHED_PLACEMENT_H_

#include <optional>

#include "src/cluster/cluster.h"

namespace philly {

inline constexpr int kMaxRelaxLevel = 3;

struct PlacerConfig {
  // Pack sub-server jobs into partially occupied servers (best-fit). The §5
  // "mitigating interference" ablation turns this off to give small jobs
  // dedicated servers.
  bool pack_small_jobs = true;
  // Upper bound on servers a fully relaxed job may spread over (the paper
  // observes >8-GPU jobs landing on up to 16 servers).
  int max_spread_servers = 16;
};

class LocalityPlacer {
 public:
  explicit LocalityPlacer(PlacerConfig config = {});

  // Finds a gang placement for `gpus` GPUs at the given relaxation level, or
  // nullopt if none exists. Never allocates — the caller owns that.
  std::optional<Placement> FindPlacement(const Cluster& cluster, int gpus,
                                         int relax_level) const;

  // Feasibility-only form of FindPlacement: answers "would a placement
  // exist?" through the same index-backed search without materializing the
  // shards. Used by the scheduling pass's out-of-order benign precheck.
  bool CanPlace(const Cluster& cluster, int gpus, int relax_level) const;

  const PlacerConfig& config() const { return config_; }

 private:
  // Index-backed search shared by FindPlacement and CanPlace. Each helper
  // returns the number of servers in the found placement, or -1 if none
  // exists. With a non-null `out`, the winning shards are appended; a failed
  // search leaves `out` untouched.
  int SearchIndexed(const Cluster& cluster, int gpus, int relax_level,
                    Placement* out) const;
  int SingleServerIndexed(const Cluster& cluster, int gpus, Placement* out) const;
  int SingleRackIndexed(const Cluster& cluster, int gpus, bool min_servers,
                        Placement* out) const;
  int AnywhereIndexed(const Cluster& cluster, int gpus, bool min_servers,
                      Placement* out) const;

  PlacerConfig config_;
};

}  // namespace philly

#endif  // SRC_SCHED_PLACEMENT_H_
