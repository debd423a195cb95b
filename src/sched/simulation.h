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
#include <cmath>
#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/failure/failure_injector.h"
#include "src/fault/checkpoint_io.h"
#include "src/fault/fault_process.h"
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
  // Virtual-cluster definitions (quota per VC); normally taken from the
  // workload config so indices line up.
  std::vector<VcConfig> vcs;
  uint64_t seed = 42;
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
  enum class AttemptKind { kFailing, kClean };

  // The state of one live job: made by AddLiveJob when the job arrives and
  // freed by FinishJob. What its record already holds is read from there: the
  // running attempt's start and placement, and the open wait's ready time and
  // failed evaluations. A job is running while it is in running_jobs_ (or
  // holds a pre-run pool slot) and queued while it is in its VC's queue.
  struct JobState {
    // The job's entry in result_.jobs, which holds the only copy of its spec.
    JobRecord* record = nullptr;
    FailurePlan plan;

    // Queueing state: the open wait, pushed onto the record when it closes.
    WaitRecord wait;
    SimTime last_eval_time = -1;  // for cause-time attribution
    DelayCause last_cause = DelayCause::kNone;
    int relax_emitted = 0;        // highest relax level already event-logged
    double queue_key = 0.0;       // ordering key (policy-dependent)

    // Execution state.
    int failure_trials_used = 0;
    SimDuration clean_executed = 0;
    // Checkpointed progress toward the current failure trial. Non-zero only
    // after a machine fault killed a failing attempt under checkpointing: a
    // deterministic bug re-manifests after the *remaining* RTF, not from
    // scratch. Always 0 with faults disabled.
    SimDuration failing_resume = 0;
    AttemptKind kind = AttemptKind::kClean;
    bool kill_at_end = false;
    SimTime segment_start = 0;
    double segment_util = 0.0;
    EventId end_event;
    EventId quantum_event;

    // Checkpoint I/O state for the current attempt (inert when the model is
    // disabled; see CkptSetupAttempt). Writes stall progress, so an attempt's
    // wall time is training time + ckpt_time_attempt. A gang deferred by the
    // stagger coordinator is in its rack's ckpt_wait_queue_.
    SimDuration ckpt_period = 0;           // policy-resolved cadence; 0 = none
    SimDuration ckpt_progress_needed = 0;  // training time this attempt targets
    EventId ckpt_trigger_event;
    bool ckpt_writing = false;   // a write is draining (progress stalled)
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

    const JobSpec& spec() const { return record->spec; }
    SimDuration CleanRemaining() const {
      return std::max<SimDuration>(0, spec().planned_duration - clean_executed);
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
  void OnArrival(JobRecord& record);
  void OnAttemptEnd(JobId id);
  void OnQuantumExpired(JobId id);
  void OnPrerunEnd(JobId id, bool caught);
  void MigrationPass();
  void TakeSnapshot();

  // --- attempt lifecycle ---
  // Every way a running attempt ends (its end event, suspension, fair-share
  // preemption, a machine-fault kill) calls StopAttempt and then
  // ReleaseAttempt, and keeps only its own flags, progress, counters and event.
  //
  // Cancels the attempt's end and quantum events, closes its utilization
  // segment, stamps its end and GPU time, and stops its checkpointing (an
  // aborted write emits its ckpt_end here). Returns the attempt.
  AttemptRecord& StopAttempt(JobState& job);
  // Books the stopped attempt in the GPU-time ledger, `lost` of it thrown away
  // by a fault, and gives its GPUs back.
  void ReleaseAttempt(JobState& job, const AttemptRecord& attempt, double lost);
  // Consumes the failure trial `attempt` just ran: synthesizes and classifies
  // its log tail, lets the retry policy observe it, then requeues or finishes
  // the job per the plan's disposition. Returns true if it requeued; on false
  // the job's state is gone.
  bool FailTrial(JobState& job, AttemptRecord& attempt);

  // --- machine faults (src/fault) ---
  // Schedules the next fault of one renewal stream after `after`: the rack's
  // when `rack` >= 0, else the server's.
  void ScheduleNextFault(ServerId server, RackId rack, SimTime after);
  // `sampled` distinguishes renewal-process events (which reschedule the next
  // fault for their server/rack after repair) from scripted one-shots.
  void OnFaultOccurred(const FaultEvent& event, bool sampled);
  void OnFaultDetected(const FaultEvent& event, std::vector<ServerId> servers,
                       bool sampled);
  void OnFaultRepaired(const FaultEvent& event, std::vector<ServerId> servers,
                       bool sampled);
  // Stops the job's attempt for a machine fault and requeues the job, or
  // finishes it Unsuccessful (freeing its state) once faults have killed
  // kMaxFaultKills of its attempts.
  void KillAttemptForFault(JobState& job, FailureReason reason, SimTime fault_time);

  // --- checkpoint I/O (src/fault/checkpoint_io; no-ops when disabled) ---
  // Resolves the attempt's cadence per the configured policy and schedules
  // its first trigger; called from StartAttempt after the end event exists.
  void CkptSetupAttempt(JobState& job, SimDuration duration);
  SimDuration ResolveCheckpointPeriod(const JobState& job) const;
  // The rack whose storage the running attempt writes through: that of its
  // first shard (one storage target per gang; see docs/failure-model.md).
  RackId CkptRack(const JobState& job) const {
    return cluster_.ServerRack(job.record->attempts.back().placement.shards.front().server);
  }
  // Training time the running attempt has made by now: the time since it
  // started less its completed writes (called with no write in flight).
  SimDuration CkptProgress(const JobState& job) const {
    return (sim_.Now() - job.record->attempts.back().start) - job.ckpt_time_attempt;
  }
  // The uncontended cost of one write by a gang of `gpus` GPUs, in seconds.
  SimDuration CkptNominal(int gpus) const {
    const double size_gb = config_.ckpt_io.size_gb_per_gpu * gpus;
    return std::max<SimDuration>(
        1, static_cast<SimDuration>(std::ceil(size_gb / config_.ckpt_io.rack_bandwidth_gbps)));
  }
  void CkptScheduleTrigger(JobState& job, SimTime at);
  void OnCkptTrigger(JobId id);
  // Stagger admission control: begins the write or defers the gang into the
  // rack's FIFO wait queue (training continues while deferred).
  void CkptAdmitOrQueue(JobState& job);
  void CkptBeginWrite(JobState& job);
  // Ends the in-flight write: charges its elapsed time to the attempt, and to
  // the ledgers as overhead up to the uncontended cost and stall beyond it,
  // each across the gang's GPUs. Returns {elapsed, stall}.
  std::pair<SimDuration, SimDuration> CkptChargeWrite(JobState& job);
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
  // Stamps the record's status and finish time and frees the job's state:
  // no handler touches `job` after calling it.
  void FinishJob(JobState& job, JobStatus status);
  // Opens a new wait for the job and inserts it into its VC queue.
  void EnterQueue(JobState& job);
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

  // --- live job table ---
  // Gives the arriving job a slot, reusing a freed one when there is one; the
  // only place job_slots_ may grow. Draws the job's failure plan.
  JobState& AddLiveJob(JobRecord& record);
  // The state of a live job. Aborts, naming the job, when `id` has none: a
  // handler reached a job that has not arrived or has finished.
  JobState& StateOf(JobId id) { return job_slots_[SlotOf(id)]; }
  const JobState& StateOf(JobId id) const { return job_slots_[SlotOf(id)]; }
  size_t SlotOf(JobId id) const;
  bool AllJobsDone() const {
    return jobs_done_ >= static_cast<int>(result_.jobs.size());
  }
  VcState& VcOf(const JobState& job) { return vcs_[static_cast<size_t>(job.spec().vc)]; }

  // Single write path for record.executed_epochs, recomputed from
  // clean_executed.
  void SyncExecutedEpochs(JobState& job) {
    const SimDuration epoch = std::max<SimDuration>(1, job.spec().EpochDuration());
    job.record->executed_epochs = static_cast<int>(
        std::min<int64_t>(job.spec().planned_epochs, job.clean_executed / epoch));
  }
  // Adds/removes the job from the sorted running set (all cluster-GPU-holding
  // jobs; prerun pool attempts excluded).
  void RunningSetInsert(const JobState& job);
  void RunningSetErase(const JobState& job);

  // --- observability (no-ops when the corresponding sink is null) ---
  // Appends an event pre-filled with the job's identity fields; returns null
  // when event logging is off so hot paths skip payload construction.
  SchedEvent* EmitEvent(SchedEventKind kind, const JobState* job);
  // An event about the job's last attempt, carrying its index and its
  // failed, preempted and machine-fault flags.
  SchedEvent* EmitAttemptEvent(SchedEventKind kind, const JobState& job);
  // The schedule event of the attempt StartAttempt just opened: the wait it
  // closed and its placement.
  SchedEvent* EmitScheduleEvent(const JobState& job);
  // Books one failed evaluation of a queued job: charges the wait since the
  // last evaluation, counts it, and tells the span sink, which refines the
  // native two-way DelayCause into its blame vocabulary (kFairShare ->
  // kFairnessShareCap; kFragmentation -> kLocalityWait when a fully-relaxed
  // placement existed, else kFragmentation).
  void NoteEvalFailure(JobState& job, DelayCause cause);

  // NoteEvalFailure's memoized CanPlace probes: gpu count -> (cluster
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
  RetryPolicy retry_policy_;
  Rng rng_;
  FaultProcess fault_process_;
  // Per server: a fault struck it and it is not yet repaired. It stays
  // schedulable until the fault is detected, when Cluster's offline flag is
  // set too; both clear at the repair. A fault on a set server changes nothing.
  std::vector<uint8_t> server_faulted_;
  // Checkpoint I/O state (engaged only when config_.ckpt_io.Enabled()).
  std::unique_ptr<CheckpointIoModel> ckpt_model_;
  std::vector<EventId> ckpt_rack_event_;          // one completion event/rack
  std::vector<std::vector<JobId>> ckpt_wait_queue_;  // stagger FIFO deferrals
  std::vector<int> ckpt_stagger_slot_;            // next phase slot per rack

  // Live jobs only. A slot is taken when its job arrives and given back to
  // free_job_slots_ when it finishes, so the table is as large as the most
  // jobs ever live at once, not as the trace.
  std::vector<JobState> job_slots_;
  std::vector<size_t> free_job_slots_;
  // Flat id -> job_slots_ index map (ids are small, so this is a plain vector
  // lookup on the hottest path in the scheduler); SIZE_MAX while the job has
  // no live state.
  std::vector<size_t> job_index_;
  std::vector<VcState> vcs_;
  // Its jobs are the one job table: one record per input job, in input
  // order, filled when the simulation is constructed and returned by Run.
  SimulationResult result_;
  // The next scheduling pass, when one is pending (value 0 otherwise).
  EventId pending_pass_event_;
  SimTime pending_pass_time_ = 0;
  SimTime last_arrival_time_ = 0;
  SimTime last_preemption_time_ = -(1 << 30);
  int prerun_in_use_ = 0;
  int jobs_done_ = 0;
  // Jobs holding cluster GPUs right now, sorted by id and paired with their
  // job_slots_ index. The per-minute sampler iterates it for the utilization
  // join, and the preemption/priority-suspension victim scans use it instead
  // of walking every live job. Prerun attempts hold pool slots, not cluster
  // GPUs, and are excluded.
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

  // Handles of the instruments with no result field to copy, resolved once at
  // construction (null when metrics are off). Run sets the rest at its end.
  Histogram* queue_delay_hist_ = nullptr;
  Histogram* fair_share_wait_hist_ = nullptr;
  Histogram* fragmentation_wait_hist_ = nullptr;
  Counter* fair_share_evals_ = nullptr;
  Counter* fragmentation_evals_ = nullptr;
};

}  // namespace philly

#endif  // SRC_SCHED_SIMULATION_H_
