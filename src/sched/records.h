// Simulation output records — the joinable "three log sources" of §2.4.
//
// The simulator emits (1) scheduler-level job records (arrival, demand,
// placement, queueing, final status — what YARN logs provide), (2) per-attempt
// records with the attempt's stdout/stderr tail (what the ML frameworks
// print), and (3) per-job utilization segments from which Ganglia-style
// per-minute telemetry is sampled. The analysis pipeline in src/core joins
// these by job/attempt id exactly as the paper's pipeline joins its logs.

#ifndef SRC_SCHED_RECORDS_H_
#define SRC_SCHED_RECORDS_H_

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/failure/failure_catalog.h"
#include "src/workload/job.h"

namespace philly {

// Why a waiting period dragged on (§3.1.1): the VC was out of quota
// (fair-share) or GPUs existed but not with the required locality
// (fragmentation).
enum class DelayCause { kNone, kFairShare, kFragmentation };

// One continuous period a job spent waiting in the queue before (re)starting.
struct WaitRecord {
  SimTime ready_time = 0;
  SimDuration wait = 0;
  // Accumulated waiting time attributed to each cause.
  SimDuration fair_share_time = 0;
  SimDuration fragmentation_time = 0;
  int sched_attempts = 0;  // failed placement evaluations during the wait

  DelayCause DominantCause() const {
    if (wait <= 0 || (fair_share_time == 0 && fragmentation_time == 0)) {
      return DelayCause::kNone;
    }
    return fair_share_time > fragmentation_time ? DelayCause::kFairShare
                                                : DelayCause::kFragmentation;
  }
};

// A constant-expected-utilization stretch of a running attempt. Segments
// close when co-tenancy changes materially or the attempt ends.
struct UtilSegment {
  double expected_util = 0.0;  // fraction in [0, 1]
  SimDuration duration = 0;
  int num_servers = 1;
};

struct AttemptRecord {
  int index = 0;  // 0-based attempt number
  SimTime start = 0;
  SimTime end = 0;
  Placement placement;
  bool failed = false;
  bool preempted = false;
  // Killed because the hardware under it went away (src/fault machine fault),
  // not because the attempt itself misbehaved. Not serialized to traces.
  bool machine_fault = false;
  // Ran on one GPU of the pre-run pool rather than a gang placement (§5
  // failure-handling ablation); placement is empty for these.
  bool prerun = false;
  // Ground truth (what the injector decided) — tests only; the analysis
  // pipeline must use the classified reason derived from log_tail.
  FailureReason true_reason = FailureReason::kNoSignature;
  // Log tail printed by the attempt (empty for clean attempts).
  std::vector<std::string> log_tail;

  SimDuration Duration() const { return end - start; }
  double GpuTime() const {
    const int gpus = prerun ? 1 : placement.NumGpus();
    return static_cast<double>(end - start) * gpus;
  }
};

struct JobRecord {
  JobSpec spec;
  JobStatus status = JobStatus::kPassed;
  SimTime finish_time = 0;

  std::vector<WaitRecord> waits;
  std::vector<AttemptRecord> attempts;
  std::vector<UtilSegment> util_segments;

  // Scheduling metadata.
  bool started_out_of_order = false;  // overtook an earlier job in its VC
  bool out_of_order_benign = true;    // the overtaken job could not run anyway
  bool overtaken = false;             // a later arrival started while this waited

  // Execution accounting.
  int executed_epochs = 0;       // clean-training epochs completed

  // First-start queueing delay (what Fig 3/4 plot). Returns 0 if never ran.
  SimDuration InitialQueueDelay() const {
    return waits.empty() ? 0 : waits.front().wait;
  }
  SimDuration TotalRunTime() const {
    SimDuration total = 0;
    for (const auto& a : attempts) {
      total += a.Duration();
    }
    return total;
  }
  // Sum over attempts, in index order, of duration x GPUs.
  double GpuSeconds() const {
    double total = 0.0;
    for (const auto& a : attempts) {
      total += a.GpuTime();
    }
    return total;
  }
  int NumRetries() const {
    return attempts.empty() ? 0 : static_cast<int>(attempts.size()) - 1;
  }
  // Servers used by the first successful placement (Fig 4's x-axis).
  int FirstPlacementServers() const {
    return attempts.empty() ? 0 : attempts.front().placement.NumServers();
  }
};

// Everything a simulation run produces.
struct SimulationResult {
  std::vector<JobRecord> jobs;
  // Cluster-level snapshots for fragmentation statistics (§3.1.1). The
  // per-minute telemetry stream (src/obs/timeseries.h) carries the cumulative
  // fault and checkpoint counters.
  struct OccupancySnapshot {
    SimTime time = 0;
    double occupancy = 0.0;
    double empty_server_fraction = 0.0;
    int racks_with_empty_servers = 0;
  };
  std::vector<OccupancySnapshot> occupancy_snapshots;

  // Scheduling-decision counters.
  int64_t scheduling_decisions = 0;
  int64_t out_of_order_decisions = 0;
  int64_t out_of_order_benign = 0;
  int64_t preemptions = 0;
  int64_t migrations = 0;
  // Waiting jobs whose locality constraint was relaxed a level, and
  // scheduling passes that ended in a backoff with jobs still waiting
  // (telemetry counters; also emitted as locality_relax/backoff events).
  int64_t locality_relaxations = 0;
  int64_t sched_backoffs = 0;
  // Checkpoint-suspensions performed by priority-preemptive baselines
  // (Optimus/Tiresias); progress is preserved, unlike fair-share preemption.
  int64_t priority_preemptions = 0;
  // Pre-run pool accounting (§5 ablation).
  int64_t prerun_jobs = 0;
  int64_t prerun_catches = 0;
  double prerun_gpu_seconds = 0.0;

  // Machine-fault accounting (src/fault; all zero when faults disabled).
  int64_t machine_faults_injected = 0;      // fault events hitting >=1 healthy server
  int64_t machine_fault_server_downs = 0;   // servers taken offline
  int64_t machine_fault_kills = 0;          // running attempts killed by faults
  // GPU-seconds thrown away by faults: work past the last checkpoint plus the
  // undetected dead window between fault and detection.
  double machine_fault_lost_gpu_seconds = 0.0;

  // Checkpoint I/O accounting (src/fault/checkpoint_io; all zero when the
  // I/O model is disabled). Every write's elapsed time splits exactly into
  // overhead (up to the uncontended cost) and stall (the contention stretch),
  // each charged across the gang's GPUs.
  int64_t ckpt_writes_started = 0;
  int64_t ckpt_writes_completed = 0;
  int64_t ckpt_writes_interrupted = 0;  // aborted by fault/suspension mid-write
  double ckpt_overhead_gpu_seconds = 0.0;
  double ckpt_stall_gpu_seconds = 0.0;

  // GPU-time conservation ledger over non-prerun attempts: allocated equals
  // useful + machine_fault_lost + ckpt_overhead + ckpt_stall exactly (the
  // property the conservation test asserts). Useful can dip negative for a
  // single attempt whose fault kill discards prior attempts' progress; the
  // run-level sum is the meaningful quantity.
  double allocated_gpu_seconds = 0.0;
  double useful_gpu_seconds = 0.0;
  // allocated - (useful + machine_fault_lost + ckpt_overhead + ckpt_stall):
  // the one reading of the ledger above, zero up to rounding.
  double GpuTimeResidual() const {
    return allocated_gpu_seconds -
           (useful_gpu_seconds + machine_fault_lost_gpu_seconds +
            ckpt_overhead_gpu_seconds + ckpt_stall_gpu_seconds);
  }

  // Discrete events the simulator processed for this run (engine throughput
  // denominator for events/sec reporting; not a scheduler statistic).
  int64_t sim_events_processed = 0;
};

}  // namespace philly

#endif  // SRC_SCHED_RECORDS_H_
