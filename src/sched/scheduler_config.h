// Scheduler policy configuration and the Table 1 presets.
//
// One runtime (src/sched/simulation.h) executes all scheduler variants; the
// policy differences from Table 1 — queue ordering, time-slicing, locality
// handling — are expressed in this config:
//
//                Philly      Gandiva      Optimus     Tiresias
//   Objective    consolid.   consolid.    avg JCT     avg JCT
//   Algorithm    locality    time-share   SRTF        LAS (attained service)
//   Input        arrival     n/a          remaining   attained service
//   Preemption   checkpoint  ctx switch   checkpoint  checkpoint

#ifndef SRC_SCHED_SCHEDULER_CONFIG_H_
#define SRC_SCHED_SCHEDULER_CONFIG_H_

#include <string>
#include <string_view>

#include "src/common/sim_time.h"
#include "src/failure/retry_policy.h"
#include "src/sched/placement.h"

namespace philly {

// No periodic checkpointing: a machine-fault kill restarts the job from zero
// clean progress.
inline constexpr SimDuration kNoCheckpoint = 0;

// How running gangs pick their checkpoint cadence. Only consulted when the
// checkpoint I/O model (SimulationConfig::ckpt_io) is enabled; with the model
// off, checkpoints are free and kFixedPeriod semantics apply implicitly.
enum class CheckpointPolicy {
  // Every gang checkpoints every checkpoint_period (today's behaviour).
  kFixedPeriod,
  // Per-gang period from Daly's tau = sqrt(2 * write_cost * MTBF), using the
  // configured fault MTBFs scaled to the gang's server/rack footprint and the
  // gang's uncontended write cost. Faults disabled => no checkpoints.
  kDalyOptimal,
  // Fixed period, plus a per-rack coordinator that phase-shifts first writes
  // across gangs and admission-limits concurrent writers (deferred gangs keep
  // training until a slot frees).
  kCooperativeStagger,
};

std::string_view ToString(CheckpointPolicy policy);

// Gang acquisition retry cadence (§2.3: 2-3 minute acquisition timeout,
// 2 minute backoff): a pass that leaves jobs waiting schedules the next one
// this far ahead.
inline constexpr SimDuration kSchedBackoff = Minutes(2);

// Machine-fault requeues, the analogue of YARN's application max-attempts: a
// job whose attempts machine faults have killed this many times ends
// Unsuccessful instead of requeueing. Bappy et al. (PAPERS.md, "A Deep Dive
// into the Google Cluster Workload Traces") characterize resubmission after
// failures in a production trace. Without a bound, a long gang with no
// checkpoints is killed again and again until it happens to finish. 8 trims
// only the tail: unbounded, a year-scale run with calibrated faults and
// hourly checkpoints has faults kill 3,545 jobs at seed 42 and 4,160 at
// seed 43, all but 1 and 5 of them at most 7 times (docs/failure-model.md).
inline constexpr int kMaxFaultKills = 8;

enum class QueueOrdering {
  kFifoArrival,                // Philly / Gandiva: arrival time
  kShortestRemainingFirst,     // Optimus: oracle remaining time
  kLeastAttainedServiceFirst,  // Tiresias: GPU-time attained so far
};

struct SchedulerConfig {
  std::string name = "philly";
  QueueOrdering ordering = QueueOrdering::kFifoArrival;

  // Gang acquisition: the relaxation ladder (§2.3: relax after a fixed
  // number of retries). A waiting job's relax level rises one step per
  // kRelaxPeriod of waiting (simulation.cc), capped at max_relax_level.
  // Locality-wait ablation (§5 "prioritizing locality"): minimum time a job
  // must wait before any relaxation is considered, regardless of attempts.
  SimDuration min_wait_before_relax = 0;
  // Cap the relax level (paper scheduler: kMaxRelaxLevel; the strict-locality
  // ablation sets 0).
  int max_relax_level = kMaxRelaxLevel;

  // Fair share / preemption (§2.3): victims come from over-quota VCs,
  // checkpoint + requeue, once occupancy reaches kPreemptionThreshold
  // (simulation.cc).
  bool enable_preemption = true;

  // Tiresias discretizes attained service into bands (its "discretized
  // 2D-LAS"): jobs in the same band are FIFO-ordered, which prevents the
  // perpetual mutual preemption a continuous least-attained-service rule
  // suffers. Band width in attained GPU-hours.
  double las_band_gpu_hours = 8.0;

  // JCT-oriented baselines (Optimus/Tiresias) preempt running jobs whose
  // priority key is worse than a waiting job's, via model-checkpoint
  // suspension (Table 1). Victims must have run at least
  // kPriorityPreemptionMinRun (simulation.cc) to bound churn.
  bool priority_preemption = false;

  // Allow scheduling a later-arrived job when earlier ones do not fit
  // (work-conserving YARN behaviour; §3.1.1 out-of-order analysis).
  bool allow_out_of_order = true;

  // §5 "improving failure handling": pre-run every multi-GPU job briefly on
  // a single GPU from a dedicated cheap pool before gang scheduling it ("we
  // plan to set up a pool of cheaper VMs to pre-run jobs ... even running
  // multi-GPU jobs on a single GPU will catch such errors"). Failures whose
  // first iterations crash are caught at 1-GPU cost instead of full-gang
  // cost, for a small start delay and pool GPU time. The pool's size and
  // the pre-run cap are kPrerunPoolGpus and kPrerunCap (simulation.cc).
  bool enable_prerun_pool = false;

  // §5 "mitigating interference": checkpoint-based migration that
  // periodically evacuates lightly-used servers (suspending their small
  // local jobs for re-placement elsewhere) to defragment the cluster —
  // the paper's prerequisite for dedicated-server placement to pay off.
  bool enable_migration = false;
  SimDuration migration_period = Minutes(30);
  // Hard cap on jobs migrated per defragmentation pass (per job, not per
  // server: a server is evacuated only as far as the remaining budget).
  int max_migrations_per_pass = 8;

  // Gandiva-style time-slicing: suspend a running job after `quantum` when
  // same-VC demand is waiting, context-switch the waiter in.
  bool time_slicing = false;
  SimDuration time_slice_quantum = Minutes(30);

  // Failure retries (§2.3 fixed budget of kMaxRetries; §5 proposes adaptive
  // and predictive alternatives — see src/failure/retry_policy.h).
  using RetryPolicyKind = philly::RetryPolicyKind;
  RetryPolicyKind retry_policy = RetryPolicyKind::kFixed;

  // Checkpoint-aware machine-fault recovery: with period K > 0, a job killed
  // by a machine fault resumes from the largest multiple of K of its clean
  // executed time (the last periodic checkpoint); with kNoCheckpoint it
  // restarts from zero. Only machine-fault kills consult this — scheduler
  // preemption already checkpoints at epoch granularity (§2.3).
  SimDuration checkpoint_period = kNoCheckpoint;
  // Cadence policy for explicit checkpoint writes when the I/O model is on.
  CheckpointPolicy checkpoint_policy = CheckpointPolicy::kFixedPeriod;

  PlacerConfig placer;

  static SchedulerConfig Philly();
  static SchedulerConfig Fifo();      // strict arrival order, no out-of-order
  static SchedulerConfig Optimus();   // SRTF on oracle remaining time
  static SchedulerConfig Tiresias();  // least attained service
  static SchedulerConfig Gandiva();   // packing + time-slicing
};

}  // namespace philly

#endif  // SRC_SCHED_SCHEDULER_CONFIG_H_
