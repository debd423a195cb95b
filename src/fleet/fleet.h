// Fleet mode: N independent ClusterSimulations behind a front-door JobRouter
// (docs/fleet.md). ROADMAP item 2: the paper analyzes one cluster, but the
// production shape of this workload is a fleet of coordinated clusters
// (Helios runs four); the calendar-queue core made N-clusters-per-run cheap.
//
// The ground rule the differential test enforces: with RouterPolicy::
// kPinnedHome and a partitioned trace, every per-cluster stream — scheduler
// events, telemetry, and the analyses derived from them — is byte-identical
// to N separate single-cluster runs. The fleet layer adds routing, never
// perturbation.
//
// Job identity across the fleet: each cluster's trace carries its own dense
// ids starting at 1. Under kPinnedHome jobs keep their original ids (that is
// what byte-identity requires). Under the dynamic policies a job routed off
// its home cluster would collide with the destination's ids, so ALL jobs are
// remapped to fleet-unique ids (home-cluster base offset + original id)
// before routing; the route stream records the remapped id.

#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/core/experiment.h"
#include "src/fleet/router.h"
#include "src/obs/event_log.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"

namespace philly {

// One member cluster: a name for reporting plus the full experiment config
// (workload + simulation) it would run standalone. Heterogeneous sizes and
// SKUs are fine; the router only consults total GPU counts.
struct FleetClusterSpec {
  std::string name;
  ExperimentConfig experiment;
};

struct FleetConfig {
  std::vector<FleetClusterSpec> clusters;
  RouterConfig router;

  // Observability for the per-cluster runs. Sinks live in the FleetResult
  // (one event log / telemetry recorder per cluster), so enabling them never
  // shares state across the pool's threads.
  bool collect_events = false;
  bool collect_telemetry = false;
  // Per-cluster causal span streams. Jobs spilled off their home cluster are
  // marked router-queued at their destination tracer before the run, so the
  // pre-evaluation stretch of their first wait is blamed on kRouterQueue.
  bool collect_spans = false;

  // ExperimentPool worker count; <= 0 means DefaultPoolThreads()
  // (PHILLY_BENCH_THREADS-aware).
  int threads = 0;
};

// Per-cluster outcome: the standalone SimulationResult plus the routing view
// and this cluster's streams.
struct FleetClusterResult {
  std::string name;
  SimulationResult result;
  int64_t num_jobs = 0;     // jobs that ran here
  int64_t home_jobs = 0;    // jobs whose home cluster is this one
  int64_t routed_in = 0;    // ran here, homed elsewhere
  int64_t routed_away = 0;  // homed here, ran elsewhere
  EventLog events;              // scheduler stream (collect_events)
  ClusterTimeSeries telemetry;  // per-minute stream (collect_telemetry)
  SpanTracer spans;             // causal span stream (collect_spans)
};

struct FleetResult {
  std::vector<FleetClusterResult> clusters;

  // Fleet-level route stream: one kRoute event per submitted job, in global
  // submission order (ties by home-cluster index), carrying the destination
  // and the router's decision inputs.
  EventLog route_events;

  int64_t total_jobs = 0;
  int64_t spilled_jobs = 0;  // routed to a cluster other than home

  // Fleet GPU-time ledger: per-cluster sums in cluster-index order. The
  // conservation identity allocated == useful + fault_lost + ckpt_overhead +
  // ckpt_stall holds exactly per cluster and therefore over the sums.
  double allocated_gpu_seconds = 0.0;
  double useful_gpu_seconds = 0.0;
  double machine_fault_lost_gpu_seconds = 0.0;
  double ckpt_overhead_gpu_seconds = 0.0;
  double ckpt_stall_gpu_seconds = 0.0;
};

class FleetSimulation {
 public:
  // Validates the config: at least one cluster, non-empty VC lists, and —
  // for the dynamic policies, where a job may run on any cluster — an equal
  // VC count on every cluster (a routed job's VC id must resolve at its
  // destination). Throws std::invalid_argument on violation.
  explicit FleetSimulation(FleetConfig config);

  // Generates each cluster's trace (in parallel), routes the merged
  // submission stream through the JobRouter (serially, deterministically),
  // runs the per-cluster simulations on the pool, and aggregates. Call once.
  FleetResult Run();

 private:
  FleetConfig config_;
};

// --- phillyctl/bench spec helpers (also exercised directly by the fuzz
// test, so malformed specs are rejected in exactly one place) --------------

// Parses a `--clusters` spec. Either "N" (1 <= N <= 64): N paper-scale
// clusters; or a comma list of per-cluster topologies "RxS" (R racks of S
// 8-GPU servers) or "RxSxG" (G GPUs per server). Returns false and sets
// *error (no partial output) on anything malformed: empty entries, zero or
// negative dimensions, trailing garbage, overflow.
bool ParseClustersSpec(std::string_view text, std::vector<ClusterConfig>* clusters,
                       std::string* error);

// Builds the standalone experiment config for one fleet member: BenchScale
// workload with arrival rates, VC quotas, and the warm-start cohort scaled to
// the cluster's GPU count (relative to paper scale), and a per-cluster seed
// derived from `base_seed` and the cluster index so sibling clusters draw
// independent traces.
ExperimentConfig FleetClusterExperiment(const ClusterConfig& cluster, int days,
                                        uint64_t base_seed, int cluster_index);

}  // namespace philly

#endif  // SRC_FLEET_FLEET_H_
