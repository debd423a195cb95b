// The cluster simulation runtime: executes a workload trace against a
// scheduler policy on a modeled cluster, producing the three joinable log
// streams the analysis pipeline consumes (DESIGN.md §1).
//
// Responsibilities:
//   * job lifecycle (Figure 1): queueing -> gang placement -> execution ->
//     pass/kill/fail -> retries -> final status
//   * fair share across virtual clusters with work-conserving borrowing and
//     threshold-triggered preemption (§2.3)
//   * locality acquisition with backoff and progressive relaxation (§2.3)
//   * queueing-delay cause attribution: fair-share vs fragmentation (§3.1.1)
//   * out-of-order scheduling bookkeeping (§3.1.1)
//   * per-attempt failure injection, log synthesis, classification-driven
//     retry (§4.2)
//   * utilization segments reflecting distribution and co-tenant interference
//     (§3.2), sampled into Ganglia-style telemetry downstream
//   * optional Gandiva-style time-slicing and the §5 ablation knobs

#ifndef SRC_SCHED_SIMULATION_H_
#define SRC_SCHED_SIMULATION_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/failure/failure_injector.h"
#include "src/fault/checkpoint_io.h"
#include "src/fault/fault_process.h"
#include "src/fault/node_health.h"
#include "src/failure/failure_logs.h"
#include "src/failure/retry_policy.h"
#include "src/obs/observability.h"
#include "src/sched/placement.h"
#include "src/sched/records.h"
#include "src/sched/scheduler_config.h"
#include "src/sim/simulator.h"
#include "src/telemetry/util_model.h"
#include "src/workload/generator.h"

namespace philly {

struct SimulationConfig {
  ClusterConfig cluster = ClusterConfig::PaperScale();
  SchedulerConfig scheduler = SchedulerConfig::Philly();
  FailureInjectorConfig failure;
  // Machine-level fault process (disabled by default: zero MTBFs).
  FaultProcessConfig fault;
  // Checkpoint I/O interference model (disabled by default: zero bandwidth).
  // When enabled, clean gangs with a checkpoint cadence issue explicit writes
  // against per-rack shared storage; see scheduler.checkpoint_policy.
  CheckpointIoConfig ckpt_io;
  UtilModelConfig util_model;
  // Virtual-cluster definitions (quota per VC); normally taken from the
  // workload config so indices line up.
  std::vector<VcConfig> vcs;
  uint64_t seed = 42;
  SimDuration snapshot_period = Hours(6);
  // Optional observability sinks (non-owning; all null by default). Sinks
  // observe scheduler decisions without influencing them: a run with sinks
  // attached produces byte-identical records to a run without.
  ObservabilityConfig obs;
};

class ClusterSimulation {
 public:
  ClusterSimulation(SimulationConfig config, std::vector<JobSpec> jobs);

  // Runs the whole trace to completion and returns the logs. Call once.
  SimulationResult Run();

 private:
  enum class Phase { kPending, kQueued, kRunning, kDone };
  enum class AttemptKind { kFailing, kClean };

  struct JobState {
    JobSpec spec;
    FailurePlan plan;
    JobRecord record;

    Phase phase = Phase::kPending;
    // Model-zoo communication intensity, resolved once at construction so
    // the co-tenant utilization join never re-hits the string-keyed zoo.
    double comm_intensity = 0.0;
    // Queueing state.
    SimTime ready_time = 0;
    WaitRecord wait;
    int eval_failures = 0;        // failed evaluations in the current wait
    SimTime last_eval_time = -1;  // for cause-time attribution
    DelayCause last_cause = DelayCause::kNone;
    int relax_emitted = 0;        // highest relax level already event-logged
    double queue_key = 0.0;       // ordering key (policy-dependent)

    // Execution state.
    bool prerun_done = false;
    int failure_trials_used = 0;
    SimDuration clean_executed = 0;
    // Checkpointed progress toward the current failure trial. Non-zero only
    // after a machine fault killed a failing attempt under checkpointing: a
    // deterministic bug re-manifests after the *remaining* RTF, not from
    // scratch. Always 0 with faults disabled.
    SimDuration failing_resume = 0;
    AttemptKind kind = AttemptKind::kClean;
    bool kill_at_end = false;
    SimTime attempt_start = 0;
    SimTime segment_start = 0;
    double segment_util = 0.0;
    EventId end_event;
    EventId quantum_event;

    // Checkpoint I/O state for the current attempt (inert when the model is
    // disabled; see CkptSetupAttempt). Writes stall progress, so an attempt's
    // wall time is training time + ckpt_time_attempt.
    SimDuration ckpt_period = 0;           // policy-resolved cadence; 0 = none
    SimDuration ckpt_progress_needed = 0;  // training time this attempt targets
    SimDuration ckpt_nominal = 0;          // uncontended write cost, seconds
    RackId ckpt_rack = -1;                 // rack whose storage the gang writes
    EventId ckpt_trigger_event;
    bool ckpt_writing = false;   // a write is draining (progress stalled)
    bool ckpt_waiting = false;   // deferred by the rack coordinator (stagger)
    SimTime ckpt_write_start = 0;
    // Training time of this attempt captured by the in-flight write (the
    // checkpoint snapshots state as of the write's begin).
    SimDuration ckpt_progress_at_write = 0;
    // Total write-elapsed seconds charged to this attempt so far (completed
    // and aborted writes alike).
    SimDuration ckpt_time_attempt = 0;
    // Total clean progress recoverable after a machine fault: progress at
    // attempt start plus the last *completed* write's capture.
    SimDuration ckpt_durable = 0;

    SimDuration CleanRemaining() const {
      return std::max<SimDuration>(0, spec.planned_duration - clean_executed);
    }
  };

  struct VcState {
    VcConfig config;
    int used_gpus = 0;
    // In policy order: EnqueueSorted inserts by queue key, ties in insertion
    // order.
    std::vector<JobId> queue;
  };

  // --- event handlers ---
  void OnArrival(JobId id);
  void OnAttemptEnd(JobId id);
  void OnQuantumExpired(JobId id);
  void OnPrerunEnd(JobId id, bool caught);
  void MigrationPass();
  void TakeSnapshot();

  // --- machine faults (src/fault) ---
  // `sampled` distinguishes renewal-process events (which reschedule the next
  // fault for their server/rack after repair) from scripted one-shots.
  void ScheduleNextServerFault(ServerId s, SimTime after);
  void ScheduleNextRackFault(RackId r, SimTime after);
  void OnFaultOccurred(const FaultEvent& event, bool sampled);
  void OnFaultDetected(const FaultEvent& event, std::vector<ServerId> servers,
                       bool sampled);
  void OnFaultRepaired(const FaultEvent& event, std::vector<ServerId> servers,
                       bool sampled);
  void KillAttemptForFault(JobState& job, FailureReason reason, SimTime fault_time);

  // --- checkpoint I/O (src/fault/checkpoint_io; no-ops when disabled) ---
  // Resolves the attempt's cadence per the configured policy and schedules
  // its first trigger; called from StartAttempt after the end event exists.
  void CkptSetupAttempt(JobState& job, SimDuration duration);
  SimDuration ResolveCheckpointPeriod(const JobState& job) const;
  void CkptScheduleTrigger(JobState& job, SimTime at);
  void OnCkptTrigger(JobId id);
  // Stagger admission control: begins the write or defers the gang into the
  // rack's FIFO wait queue (training continues while deferred).
  void CkptAdmitOrQueue(JobState& job);
  void CkptBeginWrite(JobState& job);
  void CkptCompleteWrite(JobState& job);
  // A write on `rack` finished draining: complete it, admit deferred writers.
  void OnCkptRackEvent(RackId rack);
  void CkptAdmitWaiters(RackId rack);
  // Re-arms the rack's single completion event after any writer-set change.
  void CkptRescheduleRack(RackId rack);
  // Central teardown for every attempt-termination path: cancels the pending
  // trigger, leaves the wait queue, and aborts an in-flight write (charging
  // its partial elapsed time to the attempt).
  void CkptOnAttemptStopped(JobState& job);
  // Training time the attempt actually progressed (wall time minus write
  // stalls); equals attempt.Duration() whenever the model is off.
  SimDuration AttemptExecuted(const JobState& job,
                              const AttemptRecord& attempt) const {
    return attempt.Duration() - job.ckpt_time_attempt;
  }

  // --- scheduling ---
  void RequestSchedulingPass(SimDuration delay);
  void SchedulingPass();
  // Evaluates one queued job; returns true if it started.
  bool TryStartJob(JobState& job, bool earlier_job_waiting, int earlier_waiting_demand);
  void StartAttempt(JobState& job, const Placement& placement);
  void FinishJob(JobState& job, JobStatus status);
  void Requeue(JobState& job);
  int RelaxLevelFor(const JobState& job) const;
  void AttributeWaitTime(JobState& job, DelayCause cause);
  bool TryPreemptFor(const JobState& job);
  void PreemptJob(JobState& victim);
  // Optimus/Tiresias: checkpoint-suspend the worst-priority running job so a
  // better-priority waiter can take its place. Returns true if one was
  // suspended.
  bool TryPrioritySuspendFor(const JobState& job);
  // Context-switch a running clean attempt out, preserving full progress
  // (used by time-slicing and migration).
  void SuspendAttempt(JobState& job);
  double QueueKeyFor(const JobState& job) const;
  // Inserts the job into its VC queue at its scheduling-key position (after
  // all equal keys). Every policy's key is constant while a job is queued, so
  // the queue stays sorted without the per-pass rebuild-and-stable-sort the
  // scheduler used to do; ties land in insertion order, exactly where the
  // stable sort put them.
  void EnqueueSorted(JobState& job);

  // --- telemetry segments ---
  double ComputeExpectedUtil(const JobState& job, const Placement& placement) const;
  void OpenSegment(JobState& job);
  void CloseSegment(JobState& job);
  void RefreshCotenantSegments(const Placement& placement, JobId except);

  // --- per-minute telemetry stream (all no-ops when the sink is null) ---
  // Emits every unsampled grid point <= target; wired to the simulator's
  // time-advance hook so sampling adds zero simulator events.
  void TelemetryAdvance(SimTime target);
  void FillTelemetrySample(TelemetrySample& sample);

  JobState& StateOf(JobId id);
  VcState& VcOf(const JobState& job) { return vcs_[static_cast<size_t>(job.spec.vc)]; }

  // Single write path for record.executed_epochs: keeps the cluster-wide
  // running total in sync so TakeSnapshot never rescans all jobs.
  void SetExecutedEpochs(JobState& job, int epochs) {
    executed_epochs_total_ += epochs - job.record.executed_epochs;
    job.record.executed_epochs = epochs;
  }
  // Adds/removes the job from the sorted running set (all cluster-GPU-holding
  // jobs; prerun pool attempts excluded).
  void RunningSetInsert(const JobState& job);
  void RunningSetErase(const JobState& job);

  // --- observability (no-ops when the corresponding sink is null) ---
  // Appends an event pre-filled with the job's identity fields; returns null
  // when event logging is off so hot paths skip payload construction.
  SchedEvent* EmitEvent(SchedEventKind kind, const JobState* job);
  void RecordEvalFailure(DelayCause cause);
  // Span-sink refinement of a failed evaluation: maps the native two-way
  // DelayCause onto the span blame vocabulary (kFairShare ->
  // kFairnessShareCap; kFragmentation -> kLocalityWait when a fully-relaxed
  // placement existed, else kFragmentation). No-op when the sink is null.
  void SpanNoteEvalFail(JobState& job, DelayCause cause);

  // SpanNoteEvalFail's memoized CanPlace probes: gpu count -> (cluster
  // allocation version, feasible). Touched only with the span sink attached.
  std::unordered_map<int, std::pair<int64_t, bool>> span_probe_cache_;

  SimulationConfig config_;
  Simulator sim_;
  Cluster cluster_;
  LocalityPlacer placer_;
  // Migration re-placement always packs (consolidation is the point of
  // defragmentation), regardless of the main placer's policy.
  LocalityPlacer defrag_placer_;
  UtilizationModel util_model_;
  FailureInjector injector_;
  FailureLogSynthesizer synthesizer_;
  FailureClassifier classifier_;
  std::unique_ptr<RetryPolicy> retry_policy_;
  Rng rng_;
  FaultProcess fault_process_;
  NodeHealthTracker health_;
  // Checkpoint I/O state (engaged only when config_.ckpt_io.Enabled()).
  std::unique_ptr<CheckpointIoModel> ckpt_model_;
  std::vector<EventId> ckpt_rack_event_;          // one completion event/rack
  std::vector<std::vector<JobId>> ckpt_wait_queue_;  // stagger FIFO deferrals
  std::vector<int> ckpt_stagger_slot_;            // next phase slot per rack

  std::vector<JobState> jobs_;   // dense storage
  // Flat id -> jobs_ index map (ids are dense and small, so this is a plain
  // vector lookup on the hottest path in the scheduler); SIZE_MAX = no job.
  std::vector<size_t> job_index_;
  std::vector<VcState> vcs_;
  SimulationResult result_;
  bool pass_pending_ = false;
  EventId pending_pass_event_;
  SimTime pending_pass_time_ = 0;
  SimTime last_arrival_time_ = 0;
  SimTime last_preemption_time_ = -(1 << 30);
  int prerun_in_use_ = 0;
  int jobs_done_ = 0;
  // Cluster-wide executed-epochs total, maintained incrementally through
  // SetExecutedEpochs (TakeSnapshot reads it in O(1)).
  int64_t executed_epochs_total_ = 0;
  // Jobs holding cluster GPUs right now, sorted by id (== jobs_ index order),
  // paired with their jobs_ index. The per-minute sampler iterates it for the
  // utilization join, and the preemption/priority-suspension victim scans use
  // it instead of walking every job in the trace. Prerun attempts hold pool
  // slots, not cluster GPUs, and are excluded.
  std::vector<std::pair<JobId, size_t>> running_jobs_;
  // Per-pass scratch, reserved once and reused so a scheduling pass performs
  // no allocations in steady state.
  std::vector<size_t> pass_vc_order_;
  std::vector<JobId> pass_queue_;  // snapshot of one VC's (sorted) queue
  std::vector<JobId> pass_blocked_;
  std::vector<JobId> pass_touched_;  // co-tenant refresh scratch
  // Per-server scratch for the sampler's utilization join, sized NumServers
  // and zeroed between samples via telemetry_touched_ (so a sample costs
  // O(running jobs + busy servers), not O(cluster servers)).
  std::vector<double> telemetry_srv_util_;
  std::vector<int> telemetry_srv_gpus_;
  std::vector<ServerId> telemetry_touched_;

  // Metric handles resolved once at construction (null when metrics are off).
  Histogram* queue_delay_hist_ = nullptr;
  Histogram* fair_share_wait_hist_ = nullptr;
  Histogram* fragmentation_wait_hist_ = nullptr;
  Counter* fair_share_evals_ = nullptr;
  Counter* fragmentation_evals_ = nullptr;
  Counter* decisions_metric_ = nullptr;
  Counter* preemptions_metric_ = nullptr;
  Counter* migrations_metric_ = nullptr;
  Counter* fault_kills_metric_ = nullptr;
  Gauge* lost_gpu_metric_ = nullptr;
  Gauge* occupancy_metric_ = nullptr;
};

}  // namespace philly

#endif  // SRC_SCHED_SIMULATION_H_
