#include "src/sched/simulation.h"

#include <cassert>
#include <cmath>

#include "src/workload/model_zoo.h"

namespace philly {
namespace {

// Segment-boundary threshold: co-tenancy changes smaller than this do not
// close a telemetry segment (keeps segment counts bounded under churn).
constexpr double kSegmentUtilEpsilon = 0.005;

// Out-of-order queue scan depth per VC per pass.
constexpr int kMaxQueueScan = 64;

FailureReason ReasonForFault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash:
      return FailureReason::kNodeCrash;
    case FaultKind::kGpuEccDegraded:
      return FailureReason::kNodeEccDegraded;
    case FaultKind::kSwitchOutage:
      return FailureReason::kRackSwitchOutage;
  }
  return FailureReason::kNodeCrash;
}

}  // namespace

ClusterSimulation::ClusterSimulation(SimulationConfig config, std::vector<JobSpec> jobs)
    : config_(std::move(config)),
      cluster_(config_.cluster),
      placer_(config_.scheduler.placer),
      defrag_placer_([&] {
        PlacerConfig pc = config_.scheduler.placer;
        pc.pack_small_jobs = true;
        return pc;
      }()),
      util_model_(config_.util_model),
      injector_([&] {
        FailureInjectorConfig fc = config_.failure;
        fc.seed ^= config_.seed;
        return fc;
      }()),
      rng_(config_.seed ^ 0xC0FFEEull),
      fault_process_(
          [&] {
            FaultProcessConfig fc = config_.fault;
            fc.seed ^= config_.seed;
            return fc;
          }(),
          cluster_.NumServers(), cluster_.NumRacks()),
      health_(cluster_.NumServers()) {
  if (config_.ckpt_io.Enabled()) {
    ckpt_model_ = std::make_unique<CheckpointIoModel>(
        config_.ckpt_io.rack_bandwidth_gbps, cluster_.NumRacks());
    ckpt_rack_event_.assign(static_cast<size_t>(cluster_.NumRacks()), EventId{});
    ckpt_wait_queue_.assign(static_cast<size_t>(cluster_.NumRacks()), {});
    ckpt_stagger_slot_.assign(static_cast<size_t>(cluster_.NumRacks()), 0);
  }
  SchedulerConfig::RetryPolicyKind kind = config_.scheduler.retry_policy;
  if (config_.scheduler.adaptive_retry) {
    kind = SchedulerConfig::RetryPolicyKind::kAdaptive;
  }
  switch (kind) {
    case SchedulerConfig::RetryPolicyKind::kAdaptive:
      retry_policy_ =
          std::make_unique<AdaptiveRetryPolicy>(config_.scheduler.max_retries);
      break;
    case SchedulerConfig::RetryPolicyKind::kPredictive:
      retry_policy_ = std::make_unique<PredictiveRetryPolicy>(
          config_.scheduler.max_retries, config_.scheduler.predictive_repeat_threshold);
      break;
    case SchedulerConfig::RetryPolicyKind::kFixed:
      retry_policy_ =
          std::make_unique<FixedRetryPolicy>(config_.scheduler.max_retries);
      break;
  }

  assert(!config_.vcs.empty());
  vcs_.reserve(config_.vcs.size());
  for (const auto& vc : config_.vcs) {
    vcs_.push_back(VcState{vc, 0, {}});
  }

  jobs_.reserve(jobs.size());
  JobId max_id = 0;
  for (const auto& spec : jobs) {
    max_id = std::max(max_id, spec.id);
  }
  job_index_.assign(static_cast<size_t>(max_id) + 1, SIZE_MAX);
  for (auto& spec : jobs) {
    assert(spec.vc >= 0 && static_cast<size_t>(spec.vc) < vcs_.size());
    JobState state;
    state.spec = spec;
    state.plan = injector_.PlanFor(spec);
    state.record.spec = spec;
    state.queue_key = static_cast<double>(spec.submit_time);
    state.comm_intensity = ProfileOf(spec.model).comm_intensity;
    assert(job_index_[static_cast<size_t>(spec.id)] == SIZE_MAX);
    job_index_[static_cast<size_t>(spec.id)] = jobs_.size();
    jobs_.push_back(std::move(state));
  }

  if (EventLog* log = config_.obs.event_log; log != nullptr) {
    // ~5 events/job in practice (submit/queued/schedule/complete + retries
    // and backoffs); reserving avoids growth reallocations that would
    // otherwise dominate append cost.
    log->Reserve(jobs_.size() * 6);
  }
  if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
    spans->Reserve(jobs_.size());
  }
  if (MetricsRegistry* metrics = config_.obs.metrics; metrics != nullptr) {
    queue_delay_hist_ = metrics->GetHistogram("sched.queue_delay_minutes");
    fair_share_wait_hist_ = metrics->GetHistogram("sched.wait.fair_share_minutes");
    fragmentation_wait_hist_ =
        metrics->GetHistogram("sched.wait.fragmentation_minutes");
    fair_share_evals_ = metrics->GetCounter("sched.eval_failure.fair_share");
    fragmentation_evals_ = metrics->GetCounter("sched.eval_failure.fragmentation");
    decisions_metric_ = metrics->GetCounter("sched.decisions");
    preemptions_metric_ = metrics->GetCounter("sched.preemptions");
    migrations_metric_ = metrics->GetCounter("sched.migrations");
    fault_kills_metric_ = metrics->GetCounter("fault.kills");
    lost_gpu_metric_ = metrics->GetGauge("fault.lost_gpu_seconds");
    occupancy_metric_ = metrics->GetGauge("cluster.occupancy");
  }
}

SchedEvent* ClusterSimulation::EmitEvent(SchedEventKind kind, const JobState* job) {
  if (config_.obs.event_log == nullptr) {
    return nullptr;
  }
  SchedEvent& event = config_.obs.event_log->Append(
      kind, sim_.Now(), job != nullptr ? job->spec.id : kNoJob);
  if (job != nullptr) {
    event.vc = job->spec.vc;
    event.user = job->spec.user;
    event.gpus = job->spec.num_gpus;
  }
  return &event;
}

void ClusterSimulation::RecordEvalFailure(DelayCause cause) {
  if (fair_share_evals_ == nullptr) {
    return;
  }
  (cause == DelayCause::kFairShare ? fair_share_evals_ : fragmentation_evals_)
      ->Increment();
}

void ClusterSimulation::SpanNoteEvalFail(JobState& job, DelayCause cause) {
  SpanTracer* spans = config_.obs.spans;
  if (spans == nullptr) {
    return;
  }
  BlameCode code;
  if (cause == DelayCause::kFairShare) {
    code = BlameCode::kFairnessShareCap;
  } else {
    // A fragmentation-delayed job is either truly blocked (no placement even
    // fully relaxed) or holding out for locality at its current relax level.
    // CanPlace is a pure query on the placement index, so probing it here —
    // only when the span sink is attached — cannot perturb the run. The probe
    // is memoized on (cluster allocation version, gpu count): a scheduling
    // pass fails many evals against an unchanged cluster, and same-sized jobs
    // share the answer, so most calls are a hash lookup instead of an index
    // search (keeps the span sink inside the < ~5% observability budget).
    const int64_t version = cluster_.AllocVersion();
    auto [it, missed] = span_probe_cache_.try_emplace(job.spec.num_gpus);
    if (missed || it->second.first != version) {
      it->second = {version,
                    placer_.CanPlace(cluster_, job.spec.num_gpus,
                                     config_.scheduler.max_relax_level)};
    }
    code = it->second.second ? BlameCode::kLocalityWait
                             : BlameCode::kFragmentation;
  }
  spans->OnEvalFail(job.spec.id, sim_.Now(), code);
}

ClusterSimulation::JobState& ClusterSimulation::StateOf(JobId id) {
  assert(id >= 0 && static_cast<size_t>(id) < job_index_.size());
  const size_t index = job_index_[static_cast<size_t>(id)];
  assert(index != SIZE_MAX);
  return jobs_[index];
}

SimulationResult ClusterSimulation::Run() {
  for (const auto& job : jobs_) {
    const JobId id = job.spec.id;
    last_arrival_time_ = std::max(last_arrival_time_, job.spec.submit_time);
    sim_.ScheduleAt(job.spec.submit_time, [this, id] { OnArrival(id); });
  }
  if (!jobs_.empty()) {
    sim_.ScheduleAfter(config_.snapshot_period, [this] { TakeSnapshot(); });
    if (config_.scheduler.enable_migration) {
      sim_.ScheduleAfter(config_.scheduler.migration_period, [this] { MigrationPass(); });
    }
    if (fault_process_.enabled()) {
      for (ServerId s = 0; s < cluster_.NumServers(); ++s) {
        ScheduleNextServerFault(s, 0);
      }
      for (RackId r = 0; r < cluster_.NumRacks(); ++r) {
        ScheduleNextRackFault(r, 0);
      }
      for (const FaultEvent& scripted : fault_process_.config().scripted) {
        sim_.ScheduleAt(scripted.at,
                        [this, scripted] { OnFaultOccurred(scripted, false); });
      }
    }
  }
  if (ClusterTimeSeries* ts = config_.obs.timeseries; ts != nullptr) {
    ts->BeginRun(config_.seed);
    ts->Reserve(static_cast<size_t>(last_arrival_time_ / ts->period()) + 64);
    telemetry_srv_util_.assign(static_cast<size_t>(cluster_.NumServers()), 0.0);
    telemetry_srv_gpus_.assign(static_cast<size_t>(cluster_.NumServers()), 0);
    telemetry_touched_.reserve(static_cast<size_t>(cluster_.NumServers()));
    // Sampling rides the clock-advance hook: it adds zero simulator events,
    // so enabling the sink cannot perturb the run (each sample sees the
    // piecewise-constant pre-event state of its minute).
    sim_.SetTimeAdvanceObserver([this](SimTime target) { TelemetryAdvance(target); });
  }
  sim_.Run();
  if (config_.obs.timeseries != nullptr) {
    TelemetryAdvance(sim_.Now());  // flush grid points up to the final event
    sim_.SetTimeAdvanceObserver(nullptr);
  }

  result_.sim_events_processed = static_cast<int64_t>(sim_.ProcessedCount());
  if (MetricsRegistry* metrics = config_.obs.metrics; metrics != nullptr) {
    metrics->GetCounter("sim.events_processed")
        ->Increment(result_.sim_events_processed);
  }
  result_.jobs.reserve(jobs_.size());
  for (auto& job : jobs_) {
    assert(job.phase == Phase::kDone);
    result_.jobs.push_back(std::move(job.record));
  }
  return std::move(result_);
}

void ClusterSimulation::OnArrival(JobId id) {
  JobState& job = StateOf(id);
  EmitEvent(SchedEventKind::kSubmit, &job);
  if (job.spec.num_gpus > cluster_.NumGpus()) {
    // Cannot ever be satisfied; reject at submission.
    job.phase = Phase::kRunning;  // FinishJob expects a non-queued phase
    FinishJob(job, JobStatus::kUnsuccessful);
    return;
  }
  // §5 pre-run pool: multi-GPU jobs first run briefly on one pool GPU; a
  // failure whose first RTF fits inside the cap is caught there.
  const auto& sched = config_.scheduler;
  if (sched.enable_prerun_pool && !job.prerun_done && job.spec.num_gpus > 1 &&
      prerun_in_use_ < sched.prerun_pool_gpus) {
    job.prerun_done = true;
    ++prerun_in_use_;
    ++result_.prerun_jobs;
    const bool caught = job.plan.fails && job.failure_trials_used == 0 &&
                        job.plan.trial_rtfs[0] <= sched.prerun_cap;
    const SimDuration duration =
        caught ? std::max<SimDuration>(1, job.plan.trial_rtfs[0])
               : std::min<SimDuration>(sched.prerun_cap,
                                       std::max<SimDuration>(1, job.spec.planned_duration));
    result_.prerun_gpu_seconds += static_cast<double>(duration);
    job.phase = Phase::kRunning;  // occupying a pool slot
    job.attempt_start = sim_.Now();
    AttemptRecord attempt;
    attempt.index = static_cast<int>(job.record.attempts.size());
    attempt.start = sim_.Now();
    attempt.end = sim_.Now();
    attempt.prerun = true;
    job.record.attempts.push_back(std::move(attempt));
    WaitRecord wait;
    wait.ready_time = sim_.Now();
    job.record.waits.push_back(wait);
    if (SchedEvent* e = EmitEvent(SchedEventKind::kSchedule, &job); e != nullptr) {
      e->attempt = job.record.attempts.back().index;
      e->ready_time = sim_.Now();
      e->detail = "prerun";
    }
    if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
      // Pool attempts skip the queue entirely: open the running span directly
      // (the zero-length pseudo-wait produces no queued span).
      spans->OnRunStart(id, job.spec.vc, job.spec.user, job.spec.num_gpus,
                        sim_.Now(), job.record.attempts.back().index);
    }
    sim_.ScheduleAfter(duration, [this, id, caught] { OnPrerunEnd(id, caught); });
    return;
  }
  job.phase = Phase::kQueued;
  job.ready_time = sim_.Now();
  job.wait = WaitRecord{};
  job.wait.ready_time = sim_.Now();
  job.eval_failures = 0;
  job.last_eval_time = -1;
  job.last_cause = DelayCause::kNone;
  job.relax_emitted = 0;
  EnqueueSorted(job);
  EmitEvent(SchedEventKind::kQueued, &job);
  if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
    spans->OnEnqueue(job.spec.id, job.spec.vc, job.spec.user,
                     job.spec.num_gpus, sim_.Now(), /*fault_recovery=*/false);
  }
  RequestSchedulingPass(0);
}

void ClusterSimulation::OnPrerunEnd(JobId id, bool caught) {
  JobState& job = StateOf(id);
  --prerun_in_use_;
  AttemptRecord& attempt = job.record.attempts.back();
  attempt.end = sim_.Now();
  job.record.gpu_seconds += attempt.GpuTime();
  if (!caught) {
    Requeue(job);
    RequestSchedulingPass(0);
    return;
  }
  ++result_.prerun_catches;
  ++job.failure_trials_used;
  attempt.failed = true;
  attempt.true_reason = job.plan.reason;
  attempt.log_tail = synthesizer_.LinesFor(job.plan.reason, rng_);
  const FailureReason classified = classifier_.Classify(attempt.log_tail);
  retry_policy_->ObserveFailure(job.spec.user, classified);
  const int failure_index = job.failure_trials_used - 1;
  const bool more_trials = job.failure_trials_used < job.plan.num_failure_trials;
  const bool retry =
      retry_policy_->ShouldRetryFor(job.spec.user, classified, failure_index);
  if (more_trials) {
    if (retry) {
      Requeue(job);
      RequestSchedulingPass(0);
    } else {
      FinishJob(job, JobStatus::kUnsuccessful);
    }
    return;
  }
  switch (job.plan.disposition) {
    case PostFailureDisposition::kUnsuccessful:
      FinishJob(job, JobStatus::kUnsuccessful);
      break;
    case PostFailureDisposition::kKilledByUser:
      FinishJob(job, JobStatus::kKilled);
      break;
    case PostFailureDisposition::kRecoversClean:
      if (retry) {
        Requeue(job);
        RequestSchedulingPass(0);
      } else {
        FinishJob(job, JobStatus::kUnsuccessful);
      }
      break;
  }
}

void ClusterSimulation::RequestSchedulingPass(SimDuration delay) {
  const SimTime t = sim_.Now() + delay;
  if (pass_pending_ && pending_pass_time_ <= t) {
    return;
  }
  if (pass_pending_) {
    sim_.Cancel(pending_pass_event_);
  }
  pass_pending_ = true;
  pending_pass_time_ = t;
  pending_pass_event_ = sim_.ScheduleAt(t, [this] {
    pass_pending_ = false;
    SchedulingPass();
  });
}

int ClusterSimulation::RelaxLevelFor(const JobState& job) const {
  const auto& sched = config_.scheduler;
  const SimDuration waited = sim_.Now() - job.ready_time;
  if (waited < sched.min_wait_before_relax) {
    return 0;
  }
  // Sub-server jobs hold out for a single server twice as long: their strict
  // placement frees up at whole-server churn rate, and spreading them is
  // costlier per GPU than for jobs that must cross servers anyway.
  const SimDuration period = job.spec.num_gpus <= 8
                                 ? 2 * sched.relax_period
                                 : sched.relax_period;
  const auto level = static_cast<int>((waited - sched.min_wait_before_relax) /
                                      std::max<SimDuration>(1, period));
  return std::min(level, sched.max_relax_level);
}

void ClusterSimulation::AttributeWaitTime(JobState& job, DelayCause cause) {
  const SimTime now = sim_.Now();
  if (job.last_eval_time >= 0 && job.last_cause != DelayCause::kNone) {
    const SimDuration dt = now - job.last_eval_time;
    if (job.last_cause == DelayCause::kFairShare) {
      job.wait.fair_share_time += dt;
    } else {
      job.wait.fragmentation_time += dt;
    }
  }
  job.last_eval_time = now;
  job.last_cause = cause;
}

void ClusterSimulation::EnqueueSorted(JobState& job) {
  std::vector<JobId>& q = VcOf(job).queue;
  const double key = QueueKeyFor(job);
  const auto pos = std::upper_bound(
      q.begin(), q.end(), key, [this](double k, JobId other) {
        return k < QueueKeyFor(StateOf(other));
      });
  q.insert(pos, job.spec.id);
}

double ClusterSimulation::QueueKeyFor(const JobState& job) const {
  switch (config_.scheduler.ordering) {
    case QueueOrdering::kFifoArrival:
      return job.queue_key;
    case QueueOrdering::kShortestRemainingFirst:
      return static_cast<double>(job.CleanRemaining());
    case QueueOrdering::kLeastAttainedServiceFirst: {
      // Discretized 2D-LAS: band by attained GPU-time, FIFO within a band.
      const double band_seconds =
          std::max(1.0, config_.scheduler.las_band_gpu_hours * 3600.0);
      const double band = std::floor(job.record.gpu_seconds / band_seconds);
      return band * 1e10 + job.queue_key;
    }
  }
  return job.queue_key;
}

void ClusterSimulation::SchedulingPass() {
  ScopedTimer pass_timer(config_.obs.profiler, "scheduling_pass");
  // Fair share: serve VCs in increasing order of quota usage ratio.
  std::vector<size_t>& vc_order = pass_vc_order_;
  vc_order.resize(vcs_.size());
  for (size_t i = 0; i < vcs_.size(); ++i) {
    vc_order[i] = i;
  }
  std::sort(vc_order.begin(), vc_order.end(), [&](size_t a, size_t b) {
    const double ra = static_cast<double>(vcs_[a].used_gpus) /
                      std::max(1, vcs_[a].config.quota_gpus);
    const double rb = static_cast<double>(vcs_[b].used_gpus) /
                      std::max(1, vcs_[b].config.quota_gpus);
    if (ra != rb) {
      return ra < rb;
    }
    return a < b;
  });

  // Per-pass feasibility cache: if a placement search for demand d failed at
  // relax level L, any demand >= d fails at L too (placements are monotone in
  // demand at a fixed level), until an allocation-freeing action invalidates
  // the pass state. Every freeing action counts — fair-share preemption,
  // priority (checkpoint) suspension, and migration all release GPUs mid-pass
  // and stale entries would wrongly skip jobs those GPUs could now serve.
  std::array<int, kMaxRelaxLevel + 1> failed_demand_at_level;
  failed_demand_at_level.fill(INT32_MAX);
  const auto freeing_actions = [this] {
    return result_.preemptions + result_.priority_preemptions + result_.migrations;
  };
  int64_t freeing_actions_seen = freeing_actions();

  bool any_waiting = false;
  for (size_t vi : vc_order) {
    VcState& vc = vcs_[vi];
    if (vc.queue.empty()) {
      continue;
    }
    // The VC queue is maintained in policy order by EnqueueSorted (keys are
    // constant while a job is queued, ties in insertion order — identical to
    // the stable sort this pass used to run). Snapshot it into reused scratch
    // because starting a job erases it from vc.queue mid-iteration.
    std::vector<JobId>& order = pass_queue_;
    order.assign(vc.queue.begin(), vc.queue.end());

    bool earlier_waiting = false;
    int earlier_min_demand = INT32_MAX;
    std::vector<JobId>& blocked = pass_blocked_;
    blocked.clear();
    int scanned = 0;
    for (const JobId id : order) {
      if (++scanned > kMaxQueueScan) {
        any_waiting = true;
        break;
      }
      JobState& job = StateOf(id);
      const int level = RelaxLevelFor(job);
      if (level > job.relax_emitted) {
        job.relax_emitted = level;
        ++result_.locality_relaxations;
        if (SchedEvent* e = EmitEvent(SchedEventKind::kLocalityRelax, &job);
            e != nullptr) {
          e->relax_level = level;
        }
      }
      if (freeing_actions() != freeing_actions_seen) {
        failed_demand_at_level.fill(INT32_MAX);
        freeing_actions_seen = freeing_actions();
      }
      if (job.spec.num_gpus >= failed_demand_at_level[static_cast<size_t>(level)]) {
        // A smaller-or-equal request already failed at this level this pass.
        const DelayCause cause =
            VcOf(job).used_gpus >= VcOf(job).config.quota_gpus
                ? DelayCause::kFairShare
                : DelayCause::kFragmentation;
        AttributeWaitTime(job, cause);
        RecordEvalFailure(cause);
        SpanNoteEvalFail(job, cause);
        ++job.eval_failures;
        any_waiting = true;
        earlier_waiting = true;
        earlier_min_demand = std::min(earlier_min_demand, job.spec.num_gpus);
        blocked.push_back(id);
        if (!config_.scheduler.allow_out_of_order) {
          break;
        }
        continue;
      }
      if (TryStartJob(job, earlier_waiting, earlier_min_demand)) {
        if (earlier_waiting) {
          for (JobId bid : blocked) {
            StateOf(bid).record.overtaken = true;
          }
        }
        continue;
      }
      any_waiting = true;
      earlier_waiting = true;
      earlier_min_demand = std::min(earlier_min_demand, job.spec.num_gpus);
      // The evaluation itself may have freed GPUs (suspension that still
      // left too little room): drop entries that predate the freeing so the
      // fresh failure below is recorded against the current cluster state.
      if (freeing_actions() != freeing_actions_seen) {
        failed_demand_at_level.fill(INT32_MAX);
        freeing_actions_seen = freeing_actions();
      }
      failed_demand_at_level[static_cast<size_t>(level)] = std::min(
          failed_demand_at_level[static_cast<size_t>(level)], job.spec.num_gpus);
      blocked.push_back(id);
      if (!config_.scheduler.allow_out_of_order) {
        break;  // strict FIFO: the head blocks the queue
      }
    }
  }
  if (any_waiting) {
    ++result_.sched_backoffs;
    if (SchedEvent* e = EmitEvent(SchedEventKind::kBackoff, nullptr); e != nullptr) {
      e->delay = config_.scheduler.sched_backoff;
    }
    RequestSchedulingPass(config_.scheduler.sched_backoff);
  }
}

bool ClusterSimulation::TryStartJob(JobState& job, bool earlier_job_waiting,
                                    int earlier_waiting_demand) {
  const int demand = job.spec.num_gpus;
  VcState& vc = VcOf(job);
  // Fair-share delay per the paper's definition: "the virtual cluster uses up
  // its assigned quota". A VC sitting just under quota that cannot gang-place
  // a large job is a fragmentation delay, not a fair-share one.
  const bool over_quota = vc.used_gpus >= vc.config.quota_gpus;
  const int level = RelaxLevelFor(job);

  auto placement = placer_.FindPlacement(cluster_, demand, level);
  if (!placement.has_value() && !over_quota && config_.scheduler.enable_preemption &&
      cluster_.Occupancy() >= config_.scheduler.preemption_threshold &&
      sim_.Now() - job.ready_time >= config_.scheduler.preemption_min_wait &&
      sim_.Now() - last_preemption_time_ >= config_.scheduler.preemption_cooldown) {
    // The job is within its VC's share but the cluster is saturated by
    // borrowers: reclaim GPUs from over-quota VCs (§2.3).
    if (TryPreemptFor(job)) {
      placement = placer_.FindPlacement(cluster_, demand, level);
    }
  }
  if (!placement.has_value() && config_.scheduler.priority_preemption) {
    if (TryPrioritySuspendFor(job)) {
      placement = placer_.FindPlacement(cluster_, demand, level);
    }
  }
  if (!placement.has_value()) {
    const DelayCause cause =
        over_quota ? DelayCause::kFairShare : DelayCause::kFragmentation;
    AttributeWaitTime(job, cause);
    RecordEvalFailure(cause);
    SpanNoteEvalFail(job, cause);
    ++job.eval_failures;
    return false;
  }

  AttributeWaitTime(job, DelayCause::kNone);

  ++result_.scheduling_decisions;
  if (decisions_metric_ != nullptr) {
    decisions_metric_->Increment();
  }
  bool benign_pending = false;
  bool before_feasible = false;
  if (earlier_job_waiting) {
    ++result_.out_of_order_decisions;
    job.record.started_out_of_order = true;
    benign_pending = true;
    // "Idle GPUs are effectively utilized without prolonging the scheduling
    // time of those waiting jobs" (§3.1.1): the overtaken job is waiting for
    // *locality*; overtaking it is benign as long as its fully-relaxed
    // placement opportunity survives this job's allocation (or never existed).
    before_feasible =
        placer_.CanPlace(cluster_, earlier_waiting_demand, kMaxRelaxLevel);
  }

  StartAttempt(job, *placement);
  if (benign_pending) {
    const bool after_feasible =
        placer_.CanPlace(cluster_, earlier_waiting_demand, kMaxRelaxLevel);
    job.record.out_of_order_benign = !before_feasible || after_feasible;
    if (job.record.out_of_order_benign) {
      ++result_.out_of_order_benign;
    }
  }
  if (SchedEvent* e = EmitEvent(SchedEventKind::kSchedule, &job); e != nullptr) {
    const WaitRecord& wait = job.record.waits.back();
    const AttemptRecord& attempt = job.record.attempts.back();
    e->attempt = attempt.index;
    e->ready_time = wait.ready_time;
    e->wait = wait.wait;
    e->fair_share_time = wait.fair_share_time;
    e->fragmentation_time = wait.fragmentation_time;
    e->sched_attempts = wait.sched_attempts;
    e->out_of_order = benign_pending;
    e->benign = benign_pending && job.record.out_of_order_benign;
    e->placement = EncodePlacement(attempt.placement);
    e->detail = "pass";
  }
  return true;
}

bool ClusterSimulation::TryPreemptFor(const JobState& job) {
  // Victims: most recently started attempts of jobs whose VC is over quota.
  // One preemption action per scheduling evaluation. The running set is
  // sorted by id (== jobs_ index order), so iterating it preserves the
  // original full-scan tie-breaks while skipping queued/done jobs entirely;
  // prerun pool attempts are not in the set (they hold no cluster GPUs).
  JobId victim = kNoJob;
  SimTime victim_start = -1;
  for (const auto& entry : running_jobs_) {
    JobState& candidate = jobs_[entry.second];
    assert(candidate.phase == Phase::kRunning);
    if (candidate.spec.vc == job.spec.vc) {
      continue;
    }
    const VcState& cvc = vcs_[static_cast<size_t>(candidate.spec.vc)];
    if (cvc.used_gpus <= cvc.config.quota_gpus) {
      continue;  // only over-quota VCs lose GPUs to fair share
    }
    if (candidate.attempt_start > victim_start) {
      victim_start = candidate.attempt_start;
      victim = candidate.spec.id;
    }
  }
  if (victim == kNoJob) {
    return false;
  }
  PreemptJob(StateOf(victim));
  return true;
}

bool ClusterSimulation::TryPrioritySuspendFor(const JobState& job) {
  const double waiter_key = QueueKeyFor(job);
  JobState* victim = nullptr;
  double worst_key = waiter_key;
  for (const auto& entry : running_jobs_) {
    JobState& candidate = jobs_[entry.second];
    assert(candidate.phase == Phase::kRunning);
    if (candidate.kind != AttemptKind::kClean || candidate.kill_at_end) {
      continue;
    }
    if (sim_.Now() - candidate.attempt_start <
        config_.scheduler.priority_preemption_min_run) {
      continue;
    }
    const double key = QueueKeyFor(candidate);
    if (key > worst_key) {
      worst_key = key;
      victim = &candidate;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  SuspendAttempt(*victim);
  if (SchedEvent* e = EmitEvent(SchedEventKind::kPreempt, victim); e != nullptr) {
    e->attempt = victim->record.attempts.back().index;
    e->detail = "priority";
  }
  Requeue(*victim);
  ++result_.priority_preemptions;
  return true;
}

void ClusterSimulation::StartAttempt(JobState& job, const Placement& placement) {
  const SimTime now = sim_.Now();
  // Close the waiting period.
  job.wait.wait = now - job.ready_time;
  job.wait.sched_attempts = job.eval_failures;
  job.record.waits.push_back(job.wait);
  if (queue_delay_hist_ != nullptr) {
    // First-start delay only: this is the Fig. 3 statistic (InitialQueueDelay).
    if (job.record.waits.size() == 1) {
      queue_delay_hist_->Observe(ToMinutes(job.wait.wait));
    }
    if (job.wait.fair_share_time > 0) {
      fair_share_wait_hist_->Observe(ToMinutes(job.wait.fair_share_time));
    }
    if (job.wait.fragmentation_time > 0) {
      fragmentation_wait_hist_->Observe(ToMinutes(job.wait.fragmentation_time));
    }
  }

  // Remove from the VC queue.
  VcState& vc = VcOf(job);
  vc.queue.erase(std::remove(vc.queue.begin(), vc.queue.end(), job.spec.id),
                 vc.queue.end());
  vc.used_gpus += job.spec.num_gpus;

  const bool ok = cluster_.Allocate(job.spec.id, placement);
  assert(ok);
  (void)ok;
  job.phase = Phase::kRunning;
  job.attempt_start = now;
  RunningSetInsert(job);

  // Decide what this attempt is.
  SimDuration duration = 0;
  job.kill_at_end = false;
  if (job.plan.fails && job.failure_trials_used < job.plan.num_failure_trials) {
    job.kind = AttemptKind::kFailing;
    duration = std::max<SimDuration>(
        1, job.plan.trial_rtfs[static_cast<size_t>(job.failure_trials_used)] -
               job.failing_resume);
  } else {
    job.kind = AttemptKind::kClean;
    SimDuration remaining = std::max<SimDuration>(1, job.CleanRemaining());
    if (job.spec.intrinsic == IntrinsicOutcome::kKilledByUser) {
      const auto kill_total = static_cast<SimDuration>(
          job.spec.kill_fraction * static_cast<double>(job.spec.planned_duration));
      const SimDuration kill_remaining = kill_total - job.clean_executed;
      if (kill_remaining <= remaining) {
        remaining = std::max<SimDuration>(1, kill_remaining);
        job.kill_at_end = true;
      }
    }
    duration = remaining;
  }

  AttemptRecord attempt;
  attempt.index = static_cast<int>(job.record.attempts.size());
  attempt.start = now;
  attempt.end = now;  // finalized in OnAttemptEnd/PreemptJob
  attempt.placement = placement;
  job.record.attempts.push_back(std::move(attempt));

  if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
    spans->OnStart(job.spec.id, job.spec.vc, job.spec.user, job.spec.num_gpus,
                   now, static_cast<int>(job.record.waits.size()) - 1,
                   job.record.attempts.back().index);
  }

  const JobId id = job.spec.id;
  job.end_event = sim_.ScheduleAfter(duration, [this, id] { OnAttemptEnd(id); });
  if (config_.scheduler.time_slicing &&
      duration > config_.scheduler.time_slice_quantum) {
    job.quantum_event = sim_.ScheduleAfter(config_.scheduler.time_slice_quantum,
                                           [this, id] { OnQuantumExpired(id); });
  } else {
    job.quantum_event = EventId{};
  }
  CkptSetupAttempt(job, duration);

  OpenSegment(job);
  RefreshCotenantSegments(placement, id);
}

SimDuration ClusterSimulation::ResolveCheckpointPeriod(const JobState& job) const {
  const auto& io = config_.ckpt_io;
  switch (config_.scheduler.checkpoint_policy) {
    case CheckpointPolicy::kFixedPeriod:
    case CheckpointPolicy::kCooperativeStagger:
      return config_.scheduler.checkpoint_period;
    case CheckpointPolicy::kDalyOptimal: {
      // Gang MTBF from the configured fault rates scaled to the placement's
      // footprint: each spanned server contributes the crash and ECC rates,
      // each spanned rack the switch-outage rate.
      const auto& fault = config_.fault;
      const Placement& placement = job.record.attempts.back().placement;
      double rate_per_hour = 0.0;
      if (fault.server_crash_mtbf_hours > 0.0) {
        rate_per_hour += placement.NumServers() / fault.server_crash_mtbf_hours;
      }
      if (fault.gpu_ecc_mtbf_hours > 0.0) {
        rate_per_hour += placement.NumServers() / fault.gpu_ecc_mtbf_hours;
      }
      if (fault.rack_outage_mtbf_hours > 0.0) {
        std::vector<RackId> racks;
        for (const auto& shard : placement.shards) {
          const RackId r = cluster_.ServerRack(shard.server);
          if (std::find(racks.begin(), racks.end(), r) == racks.end()) {
            racks.push_back(r);
          }
        }
        rate_per_hour += racks.size() / fault.rack_outage_mtbf_hours;
      }
      if (rate_per_hour <= 0.0) {
        return 0;  // no faults expected: checkpointing is pure overhead
      }
      const double write_cost =
          io.size_gb_per_gpu * placement.NumGpus() / io.rack_bandwidth_gbps;
      return DalyOptimalPeriod(write_cost, 3600.0 / rate_per_hour,
                               io.min_period, io.max_period);
    }
  }
  return 0;
}

void ClusterSimulation::CkptSetupAttempt(JobState& job, SimDuration duration) {
  job.ckpt_period = 0;
  job.ckpt_time_attempt = 0;
  job.ckpt_writing = false;
  job.ckpt_waiting = false;
  job.ckpt_trigger_event = EventId{};
  if (ckpt_model_ == nullptr || job.kind != AttemptKind::kClean) {
    return;
  }
  const SimDuration period = ResolveCheckpointPeriod(job);
  if (period <= 0) {
    return;
  }
  const Placement& placement = job.record.attempts.back().placement;
  job.ckpt_period = period;
  job.ckpt_progress_needed = duration;
  // Multi-rack gangs write through the rack of their first shard (one
  // storage target per gang; see docs/failure-model.md).
  job.ckpt_rack = cluster_.ServerRack(placement.shards.front().server);
  const double size_gb = config_.ckpt_io.size_gb_per_gpu * placement.NumGpus();
  job.ckpt_nominal = std::max<SimDuration>(
      1, static_cast<SimDuration>(
             std::ceil(size_gb / config_.ckpt_io.rack_bandwidth_gbps)));
  job.ckpt_durable = job.clean_executed;
  SimDuration phase = 0;
  if (config_.scheduler.checkpoint_policy ==
      CheckpointPolicy::kCooperativeStagger) {
    const int slots = std::max(1, config_.ckpt_io.stagger_slots);
    int& slot = ckpt_stagger_slot_[static_cast<size_t>(job.ckpt_rack)];
    phase = static_cast<SimDuration>(slot) * (period / slots);
    slot = (slot + 1) % slots;
  }
  CkptScheduleTrigger(job, sim_.Now() + period + phase);
}

void ClusterSimulation::CkptScheduleTrigger(JobState& job, SimTime at) {
  const JobId id = job.spec.id;
  job.ckpt_trigger_event = sim_.ScheduleAt(at, [this, id] { OnCkptTrigger(id); });
}

void ClusterSimulation::OnCkptTrigger(JobId id) {
  JobState& job = StateOf(id);
  job.ckpt_trigger_event = EventId{};
  if (job.phase != Phase::kRunning || job.ckpt_period <= 0) {
    return;  // stale trigger (attempt already ended this instant)
  }
  const SimDuration progress =
      (sim_.Now() - job.attempt_start) - job.ckpt_time_attempt;
  if (progress >= job.ckpt_progress_needed) {
    return;  // the attempt completes at this same instant; nothing to write
  }
  CkptAdmitOrQueue(job);
}

void ClusterSimulation::CkptAdmitOrQueue(JobState& job) {
  if (config_.scheduler.checkpoint_policy ==
          CheckpointPolicy::kCooperativeStagger &&
      ckpt_model_->Writers(job.ckpt_rack) >=
          config_.ckpt_io.max_writers_per_rack) {
    job.ckpt_waiting = true;
    ckpt_wait_queue_[static_cast<size_t>(job.ckpt_rack)].push_back(job.spec.id);
    return;  // training continues; admitted when a slot frees
  }
  CkptBeginWrite(job);
}

void ClusterSimulation::CkptBeginWrite(JobState& job) {
  const SimTime now = sim_.Now();
  job.ckpt_waiting = false;
  job.ckpt_writing = true;
  job.ckpt_write_start = now;
  job.ckpt_progress_at_write =
      (now - job.attempt_start) - job.ckpt_time_attempt;
  // Progress stalls while the write drains: park the end event until the
  // write completes (CkptCompleteWrite reschedules it for the remainder).
  sim_.Cancel(job.end_event);
  job.end_event = EventId{};
  ++result_.ckpt_writes_started;
  const Placement& placement = job.record.attempts.back().placement;
  ckpt_model_->BeginWrite(job.ckpt_rack, job.spec.id,
                          config_.ckpt_io.size_gb_per_gpu * placement.NumGpus(),
                          now);
  CkptRescheduleRack(job.ckpt_rack);
  if (SchedEvent* e = EmitEvent(SchedEventKind::kCkptBegin, &job); e != nullptr) {
    e->attempt = job.record.attempts.back().index;
    e->rack = job.ckpt_rack;
    e->delay = job.ckpt_nominal;
    e->detail = std::string(ToString(config_.scheduler.checkpoint_policy));
  }
}

void ClusterSimulation::CkptCompleteWrite(JobState& job) {
  const SimTime now = sim_.Now();
  const SimDuration elapsed = now - job.ckpt_write_start;
  const SimDuration overhead = std::min(elapsed, job.ckpt_nominal);
  const SimDuration stall = elapsed - overhead;
  const int gpus = job.record.attempts.back().placement.NumGpus();
  job.ckpt_writing = false;
  job.ckpt_time_attempt += elapsed;
  job.ckpt_durable = job.clean_executed + job.ckpt_progress_at_write;
  ++result_.ckpt_writes_completed;
  result_.ckpt_overhead_gpu_seconds += static_cast<double>(overhead) * gpus;
  result_.ckpt_stall_gpu_seconds += static_cast<double>(stall) * gpus;
  // Resume training for the remaining progress (strictly positive: a write
  // never begins once the attempt's progress target is reached).
  const JobId id = job.spec.id;
  job.end_event =
      sim_.ScheduleAfter(job.ckpt_progress_needed - job.ckpt_progress_at_write,
                         [this, id] { OnAttemptEnd(id); });
  CkptScheduleTrigger(job, now + job.ckpt_period);
  if (SchedEvent* e = EmitEvent(SchedEventKind::kCkptEnd, &job); e != nullptr) {
    e->attempt = job.record.attempts.back().index;
    e->rack = job.ckpt_rack;
    e->delay = elapsed;
  }
  if (stall > 0) {
    if (SchedEvent* e = EmitEvent(SchedEventKind::kCkptStall, &job);
        e != nullptr) {
      e->attempt = job.record.attempts.back().index;
      e->rack = job.ckpt_rack;
      e->delay = stall;
      e->lost_gpu_seconds = static_cast<double>(stall) * gpus;
    }
    if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
      spans->OnCkptStall(job.spec.id, now, stall, "write");
    }
  }
}

void ClusterSimulation::OnCkptRackEvent(RackId rack) {
  ckpt_rack_event_[static_cast<size_t>(rack)] = EventId{};
  for (JobId id : ckpt_model_->CollectCompleted(rack, sim_.Now())) {
    CkptCompleteWrite(StateOf(id));
  }
  CkptAdmitWaiters(rack);
  CkptRescheduleRack(rack);
}

void ClusterSimulation::CkptAdmitWaiters(RackId rack) {
  auto& queue = ckpt_wait_queue_[static_cast<size_t>(rack)];
  while (!queue.empty() && ckpt_model_->Writers(rack) <
                               config_.ckpt_io.max_writers_per_rack) {
    JobState& job = StateOf(queue.front());
    queue.erase(queue.begin());
    job.ckpt_waiting = false;
    // A deferred gang kept training; if it reached its progress target while
    // waiting, its end event fires this instant — drop the stale request.
    const SimDuration progress =
        (sim_.Now() - job.attempt_start) - job.ckpt_time_attempt;
    if (progress >= job.ckpt_progress_needed) {
      continue;
    }
    CkptBeginWrite(job);
  }
}

void ClusterSimulation::CkptRescheduleRack(RackId rack) {
  EventId& event = ckpt_rack_event_[static_cast<size_t>(rack)];
  if (event.value != 0) {
    sim_.Cancel(event);
    event = EventId{};
  }
  const auto next = ckpt_model_->NextCompletion(rack, sim_.Now());
  if (next.has_value()) {
    event = sim_.ScheduleAt(*next, [this, rack] { OnCkptRackEvent(rack); });
  }
}

void ClusterSimulation::CkptOnAttemptStopped(JobState& job) {
  if (job.ckpt_period <= 0) {
    return;
  }
  if (job.ckpt_trigger_event.value != 0) {
    sim_.Cancel(job.ckpt_trigger_event);
    job.ckpt_trigger_event = EventId{};
  }
  if (job.ckpt_waiting) {
    auto& queue = ckpt_wait_queue_[static_cast<size_t>(job.ckpt_rack)];
    queue.erase(std::remove(queue.begin(), queue.end(), job.spec.id),
                queue.end());
    job.ckpt_waiting = false;
  }
  if (job.ckpt_writing) {
    // Abort mid-write: the partial elapsed time is still paid for (split
    // into overhead and stall like a completed write), but nothing becomes
    // durable. The freed bandwidth immediately speeds up the rack's other
    // writers, and a deferred writer may take the slot.
    const SimTime now = sim_.Now();
    const SimDuration elapsed = now - job.ckpt_write_start;
    const SimDuration overhead = std::min(elapsed, job.ckpt_nominal);
    const SimDuration stall = elapsed - overhead;
    const int gpus = job.record.attempts.back().placement.NumGpus();
    job.ckpt_time_attempt += elapsed;
    job.ckpt_writing = false;
    ++result_.ckpt_writes_interrupted;
    result_.ckpt_overhead_gpu_seconds += static_cast<double>(overhead) * gpus;
    result_.ckpt_stall_gpu_seconds += static_cast<double>(stall) * gpus;
    ckpt_model_->AbortWrite(job.ckpt_rack, job.spec.id, now);
    if (SchedEvent* e = EmitEvent(SchedEventKind::kCkptEnd, &job); e != nullptr) {
      e->attempt = job.record.attempts.back().index;
      e->rack = job.ckpt_rack;
      e->delay = elapsed;
      e->detail = "interrupted";
    }
    if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
      spans->OnCkptStall(job.spec.id, now, stall, "interrupted");
    }
    CkptAdmitWaiters(job.ckpt_rack);
    CkptRescheduleRack(job.ckpt_rack);
  }
}

double ClusterSimulation::ComputeExpectedUtil(const JobState& job,
                                              const Placement& placement) const {
  // Table 3 reports a consistent by-status ordering: unsuccessful jobs show
  // the *highest* utilization (crash-bound jobs — OOMs, invalid accesses —
  // hammer their GPUs until they die), while killed jobs show the lowest
  // (users terminate jobs whose throughput is lagging). Model both as
  // modest multipliers on the job's expected utilization.
  double status_factor = 1.0;
  if (job.kind == AttemptKind::kFailing) {
    status_factor = 1.12;
  } else if (job.kill_at_end) {
    status_factor = 0.85;
  }
  const auto activity_of = [this](JobId id) {
    const size_t index = job_index_[static_cast<size_t>(id)];
    assert(index != SIZE_MAX);
    const JobState& other = jobs_[index];
    JobActivity activity;
    activity.base_utilization = other.spec.base_utilization;
    activity.comm_intensity = other.comm_intensity;
    activity.num_gpus = other.spec.num_gpus;
    activity.num_servers =
        other.record.attempts.empty()
            ? 1
            : other.record.attempts.back().placement.NumServers();
    return activity;
  };
  return std::min(
      1.0, status_factor * util_model_.ExpectedUtilization(job.spec, placement,
                                                           cluster_, activity_of));
}

void ClusterSimulation::OpenSegment(JobState& job) {
  job.segment_start = sim_.Now();
  job.segment_util = ComputeExpectedUtil(job, job.record.attempts.back().placement);
}

void ClusterSimulation::CloseSegment(JobState& job) {
  const SimDuration duration = sim_.Now() - job.segment_start;
  if (duration > 0) {
    job.record.util_segments.push_back(
        {job.segment_util, duration, job.record.attempts.back().placement.NumServers()});
  }
  job.segment_start = sim_.Now();
}

void ClusterSimulation::RefreshCotenantSegments(const Placement& placement,
                                                JobId except) {
  // Co-tenant sets are tiny (a handful of jobs across <= a few servers), so a
  // reused flat vector with linear dedup beats a hash set; per-job updates
  // are independent, so visit order does not affect any output stream.
  std::vector<JobId>& touched = pass_touched_;
  touched.clear();
  for (const auto& shard : placement.shards) {
    for (const auto& tenant : cluster_.TenantsOnServer(shard.server)) {
      if (tenant.job != except &&
          std::find(touched.begin(), touched.end(), tenant.job) == touched.end()) {
        touched.push_back(tenant.job);
      }
    }
  }
  for (JobId id : touched) {
    JobState& job = StateOf(id);
    if (job.phase != Phase::kRunning) {
      continue;
    }
    const double updated =
        ComputeExpectedUtil(job, job.record.attempts.back().placement);
    if (std::abs(updated - job.segment_util) > kSegmentUtilEpsilon) {
      CloseSegment(job);
      job.segment_util = updated;
    }
  }
}

void ClusterSimulation::RunningSetInsert(const JobState& job) {
  const std::pair<JobId, size_t> entry{
      job.spec.id, static_cast<size_t>(&job - jobs_.data())};
  const auto it = std::lower_bound(running_jobs_.begin(),
                                   running_jobs_.end(), entry);
  running_jobs_.insert(it, entry);
}

void ClusterSimulation::RunningSetErase(const JobState& job) {
  const auto it = std::lower_bound(
      running_jobs_.begin(), running_jobs_.end(), job.spec.id,
      [](const auto& entry, JobId id) { return entry.first < id; });
  assert(it != running_jobs_.end() && it->first == job.spec.id);
  running_jobs_.erase(it);
}

void ClusterSimulation::TelemetryAdvance(SimTime target) {
  ClusterTimeSeries* ts = config_.obs.timeseries;
  if (ts == nullptr) {
    return;
  }
  while (ts->NextSampleTime() <= target) {
    FillTelemetrySample(ts->AppendSample(ts->NextSampleTime()));
  }
}

void ClusterSimulation::FillTelemetrySample(TelemetrySample& s) {
  ClusterTimeSeries* ts = config_.obs.timeseries;

  // Cluster occupancy and fragmentation, straight off the placement index.
  s.used_gpus = cluster_.NumUsedGpus();
  s.free_gpus = cluster_.NumFreeGpus();
  s.occupancy = cluster_.Occupancy();
  s.racks_with_empty = cluster_.RacksWithEmptyServers();
  s.offline_servers = cluster_.NumOfflineServers();
  s.rack_free_gpus.reserve(static_cast<size_t>(cluster_.NumRacks()));
  for (RackId r = 0; r < cluster_.NumRacks(); ++r) {
    s.rack_free_gpus.push_back(cluster_.RackFreeGpus(r));
  }

  // Per-VC scheduler state.
  s.vc_queued.reserve(vcs_.size());
  s.vc_running.reserve(vcs_.size());
  s.vc_used_gpus.reserve(vcs_.size());
  for (const VcState& vc : vcs_) {
    s.vc_queued.push_back(static_cast<int>(vc.queue.size()));
    s.vc_running.push_back(0);  // filled from the running set below
    s.vc_used_gpus.push_back(vc.used_gpus);
    s.queued_jobs += static_cast<int>(vc.queue.size());
  }

  // Utilization join: one AR(1) step per running job per sampled minute,
  // iterated in job-id order so the stream is deterministic. Each job's
  // observed utilization is scattered onto its placement's servers through
  // the per-server scratch, so the whole sample costs O(running jobs + busy
  // servers) rather than a full-cluster scan (prerun attempts hold pool
  // slots, not cluster GPUs, so the running set covers every allocation).
  double exp_weighted = 0.0;
  double obs_weighted = 0.0;
  int64_t weight = 0;
  for (const auto& [id, index] : running_jobs_) {
    const JobState& job = jobs_[index];
    const double obs_pct = ts->ObserveUtilPct(
        id, job.record.attempts.back().index, job.segment_util);
    const int gpus = job.spec.num_gpus;
    exp_weighted += job.segment_util * 100.0 * gpus;
    obs_weighted += obs_pct * gpus;
    weight += gpus;
    ++s.vc_running[static_cast<size_t>(job.spec.vc)];
    for (const auto& shard : job.record.attempts.back().placement.shards) {
      const auto sv = static_cast<size_t>(shard.server);
      if (telemetry_srv_gpus_[sv] == 0) {
        telemetry_touched_.push_back(shard.server);
      }
      telemetry_srv_util_[sv] += obs_pct * shard.gpus;
      telemetry_srv_gpus_[sv] += shard.gpus;
    }
  }
  s.running_jobs = static_cast<int>(running_jobs_.size());
  if (weight > 0) {
    s.util_expected_pct = exp_weighted / static_cast<double>(weight);
    s.util_observed_pct = obs_weighted / static_cast<double>(weight);
  }

  // Per-server observed utilization, bucketed by decile over busy servers;
  // empty = neither busy nor offline, computed without the full server scan.
  int busy_offline = 0;
  for (const ServerId server : telemetry_touched_) {
    const auto sv = static_cast<size_t>(server);
    const double mean_pct =
        telemetry_srv_util_[sv] / static_cast<double>(telemetry_srv_gpus_[sv]);
    const int decile = std::clamp(static_cast<int>(mean_pct / 10.0), 0, 9);
    ++s.util_deciles[static_cast<size_t>(decile)];
    if (cluster_.ServerOffline(server)) {
      ++busy_offline;
    }
    telemetry_srv_util_[sv] = 0.0;
    telemetry_srv_gpus_[sv] = 0;
  }
  s.busy_servers = static_cast<int>(telemetry_touched_.size());
  s.empty_servers = cluster_.NumServers() - s.busy_servers -
                    (s.offline_servers - busy_offline);
  telemetry_touched_.clear();

  // Cumulative scheduler/fault counters.
  s.locality_relaxations = result_.locality_relaxations;
  s.backoffs = result_.sched_backoffs;
  s.preemptions = result_.preemptions;
  s.migrations = result_.migrations;
  s.fault_kills = result_.machine_fault_kills;
  s.lost_gpu_seconds = result_.machine_fault_lost_gpu_seconds;

  // Checkpoint I/O occupancy: per-rack in-flight writers plus the cumulative
  // cost counters. Left at defaults (and omitted from the encoding) when the
  // model is disabled so streams stay byte-identical to pre-checkpoint builds.
  if (ckpt_model_ != nullptr) {
    const int racks = cluster_.NumRacks();
    s.ckpt_rack_writers.resize(racks);
    for (int r = 0; r < racks; ++r) {
      s.ckpt_rack_writers[r] = ckpt_model_->Writers(r);
    }
    s.ckpt_writes = result_.ckpt_writes_completed;
    s.ckpt_overhead_gpu_seconds = result_.ckpt_overhead_gpu_seconds;
    s.ckpt_stall_gpu_seconds = result_.ckpt_stall_gpu_seconds;
  }

  // Per-VC x per-blame-code attributed seconds, cumulative (left empty — and
  // omitted from the encoding — unless the span tracer is attached).
  if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
    spans->FillVcBlame(s.vc_blame_s);
  }
}

void ClusterSimulation::OnAttemptEnd(JobId id) {
  JobState& job = StateOf(id);
  assert(job.phase == Phase::kRunning);
  const SimTime now = sim_.Now();
  if (job.quantum_event.value != 0) {
    sim_.Cancel(job.quantum_event);
    job.quantum_event = EventId{};
  }

  CloseSegment(job);
  AttemptRecord& attempt = job.record.attempts.back();
  attempt.end = now;
  job.record.gpu_seconds += attempt.GpuTime();
  CkptOnAttemptStopped(job);  // not writing here (the end event was parked
                              // during writes); cancels the pending trigger
  result_.allocated_gpu_seconds += attempt.GpuTime();
  result_.useful_gpu_seconds +=
      attempt.GpuTime() - static_cast<double>(job.ckpt_time_attempt) *
                              attempt.placement.NumGpus();

  cluster_.Release(id);
  RunningSetErase(job);
  VcOf(job).used_gpus -= job.spec.num_gpus;
  RefreshCotenantSegments(attempt.placement, id);

  if (job.kind == AttemptKind::kClean) {
    job.clean_executed += AttemptExecuted(job, attempt);
    const SimDuration epoch = std::max<SimDuration>(1, job.spec.EpochDuration());
    SetExecutedEpochs(job, static_cast<int>(std::min<int64_t>(
                               job.spec.planned_epochs, job.clean_executed / epoch)));
    if (job.kill_at_end) {
      FinishJob(job, JobStatus::kKilled);
    } else if (job.CleanRemaining() <= 0) {
      FinishJob(job, JobStatus::kPassed);
    } else {
      Requeue(job);  // suspended mid-run (time slicing)
    }
  } else {
    ++job.failure_trials_used;
    job.failing_resume = 0;  // the trial fired; nothing carries forward
    attempt.failed = true;
    attempt.true_reason = job.plan.reason;
    attempt.log_tail = synthesizer_.LinesFor(job.plan.reason, rng_);
    const FailureReason classified = classifier_.Classify(attempt.log_tail);
    const int failure_index = job.failure_trials_used - 1;
    retry_policy_->ObserveFailure(job.spec.user, classified);

    if (job.failure_trials_used < job.plan.num_failure_trials) {
      if (retry_policy_->ShouldRetryFor(job.spec.user, classified, failure_index)) {
        Requeue(job);
      } else {
        FinishJob(job, JobStatus::kUnsuccessful);
      }
    } else {
      switch (job.plan.disposition) {
        case PostFailureDisposition::kUnsuccessful:
          FinishJob(job, JobStatus::kUnsuccessful);
          break;
        case PostFailureDisposition::kKilledByUser:
          FinishJob(job, JobStatus::kKilled);
          break;
        case PostFailureDisposition::kRecoversClean:
          if (retry_policy_->ShouldRetryFor(job.spec.user, classified,
                                            failure_index)) {
            Requeue(job);
          } else {
            FinishJob(job, JobStatus::kUnsuccessful);
          }
          break;
      }
    }
  }
  RequestSchedulingPass(0);
}

void ClusterSimulation::OnQuantumExpired(JobId id) {
  JobState& job = StateOf(id);
  if (job.phase != Phase::kRunning) {
    return;
  }
  job.quantum_event = EventId{};
  // Only clean attempts are context-switched; failing attempts run to their
  // failure (their RTF schedule must not be disturbed).
  if (job.kind != AttemptKind::kClean) {
    return;
  }
  // Switch out only if a same-VC job is waiting and could use the space.
  const VcState& vc = VcOf(job);
  bool waiter = false;
  for (JobId qid : vc.queue) {
    if (StateOf(qid).spec.num_gpus <=
        job.spec.num_gpus + cluster_.NumFreeGpus()) {
      waiter = true;
      break;
    }
  }
  if (!waiter) {
    const JobId jid = job.spec.id;
    job.quantum_event = sim_.ScheduleAfter(config_.scheduler.time_slice_quantum,
                                           [this, jid] { OnQuantumExpired(jid); });
    return;
  }

  // Suspend: Gandiva-style context switch preserves full progress.
  SuspendAttempt(job);
  if (SchedEvent* e = EmitEvent(SchedEventKind::kPreempt, &job); e != nullptr) {
    e->attempt = job.record.attempts.back().index;
    e->detail = "timeslice";
  }
  job.queue_key = static_cast<double>(sim_.Now());  // go behind the round-robin
  Requeue(job);
  RequestSchedulingPass(0);
}

void ClusterSimulation::SuspendAttempt(JobState& job) {
  assert(job.phase == Phase::kRunning);
  assert(job.kind == AttemptKind::kClean);
  sim_.Cancel(job.end_event);
  if (job.quantum_event.value != 0) {
    sim_.Cancel(job.quantum_event);
    job.quantum_event = EventId{};
  }
  CloseSegment(job);
  AttemptRecord& attempt = job.record.attempts.back();
  attempt.end = sim_.Now();
  job.record.gpu_seconds += attempt.GpuTime();
  CkptOnAttemptStopped(job);  // may abort an in-flight write mid-suspension
  result_.allocated_gpu_seconds += attempt.GpuTime();
  result_.useful_gpu_seconds +=
      attempt.GpuTime() - static_cast<double>(job.ckpt_time_attempt) *
                              attempt.placement.NumGpus();
  job.clean_executed += AttemptExecuted(job, attempt);
  // Keep the recorded epoch count current while the job sits requeued:
  // time-sliced and migrated jobs otherwise undercount epochs until their
  // next clean attempt completes (OnAttemptEnd and PreemptJob both do this).
  const SimDuration epoch = std::max<SimDuration>(1, job.spec.EpochDuration());
  SetExecutedEpochs(job, static_cast<int>(std::min<int64_t>(
                             job.spec.planned_epochs, job.clean_executed / epoch)));
  cluster_.Release(job.spec.id);
  RunningSetErase(job);
  VcOf(job).used_gpus -= job.spec.num_gpus;
  RefreshCotenantSegments(attempt.placement, job.spec.id);
}

void ClusterSimulation::MigrationPass() {
  ScopedTimer pass_timer(config_.obs.profiler, "migration_pass");
  // Defragmentation (§5): evacuate the most lightly used servers whose
  // tenants are all small single-server clean jobs, so whole servers open up
  // for gangs that need locality. The evacuated jobs requeue with progress
  // intact and re-pack best-fit elsewhere.
  struct Candidate {
    ServerId server = -1;
    int used = 0;
  };
  std::vector<Candidate> candidates;
  for (ServerId s = 0; s < cluster_.NumServers(); ++s) {
    const int used = cluster_.ServerUsed(s);
    if (used == 0 || used > cluster_.ServerCapacity(s) / 2) {
      continue;
    }
    bool evacuable = true;
    for (const auto& tenant : cluster_.TenantsOnServer(s)) {
      const JobState& job = StateOf(tenant.job);
      if (job.kind != AttemptKind::kClean ||
          job.record.attempts.back().placement.NumServers() > 1) {
        evacuable = false;
        break;
      }
    }
    if (evacuable) {
      candidates.push_back({s, used});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.used != b.used) {
                return a.used < b.used;
              }
              return a.server < b.server;
            });

  int migrated = 0;
  for (const Candidate& candidate : candidates) {
    if (migrated >= config_.scheduler.max_migrations_per_pass) {
      break;
    }
    // Evacuate the server (ideally fully, so packing re-placement cannot
    // choose it — an empty server is the packer's last resort), then re-place
    // each evacuee best-fit; anything unplaceable right now stays queued.
    // `max_migrations_per_pass` is a per-job cap, enforced per evacuee: a
    // server with more tenants than the remaining budget is evacuated only
    // partially, never overshooting the cap.
    const auto tenants = cluster_.TenantsOnServer(candidate.server);
    std::vector<JobId> evacuated;
    for (const auto& tenant : tenants) {
      if (migrated >= config_.scheduler.max_migrations_per_pass) {
        break;
      }
      JobState& job = StateOf(tenant.job);
      if (job.phase != Phase::kRunning) {
        continue;
      }
      SuspendAttempt(job);
      if (SchedEvent* e = EmitEvent(SchedEventKind::kMigrate, &job); e != nullptr) {
        e->attempt = job.record.attempts.back().index;
      }
      Requeue(job);
      evacuated.push_back(tenant.job);
      ++migrated;
      ++result_.migrations;
      if (migrations_metric_ != nullptr) {
        migrations_metric_->Increment();
      }
    }
    for (JobId id : evacuated) {
      JobState& job = StateOf(id);
      const auto placement =
          defrag_placer_.FindPlacement(cluster_, job.spec.num_gpus, 0);
      if (placement.has_value() &&
          !(placement->NumServers() == 1 &&
            placement->shards[0].server == candidate.server)) {
        StartAttempt(job, *placement);
        if (SchedEvent* e = EmitEvent(SchedEventKind::kSchedule, &job);
            e != nullptr) {
          const WaitRecord& wait = job.record.waits.back();
          const AttemptRecord& attempt = job.record.attempts.back();
          e->attempt = attempt.index;
          e->ready_time = wait.ready_time;
          e->wait = wait.wait;
          e->fair_share_time = wait.fair_share_time;
          e->fragmentation_time = wait.fragmentation_time;
          e->sched_attempts = wait.sched_attempts;
          e->placement = EncodePlacement(attempt.placement);
          e->detail = "migrate";
        }
      }
    }
  }
  if (migrated > 0) {
    RequestSchedulingPass(0);
  }
  if (jobs_done_ < static_cast<int>(jobs_.size())) {
    sim_.ScheduleAfter(config_.scheduler.migration_period, [this] { MigrationPass(); });
  }
}

void ClusterSimulation::PreemptJob(JobState& victim) {
  assert(victim.phase == Phase::kRunning);
  const SimTime now = sim_.Now();
  sim_.Cancel(victim.end_event);
  if (victim.quantum_event.value != 0) {
    sim_.Cancel(victim.quantum_event);
    victim.quantum_event = EventId{};
  }
  CloseSegment(victim);
  AttemptRecord& attempt = victim.record.attempts.back();
  attempt.end = now;
  attempt.failed = true;
  attempt.preempted = true;
  attempt.true_reason = FailureReason::kJobPreempted;
  attempt.log_tail = synthesizer_.LinesFor(FailureReason::kJobPreempted, rng_);
  victim.record.gpu_seconds += attempt.GpuTime();
  CkptOnAttemptStopped(victim);  // may abort an in-flight write
  result_.allocated_gpu_seconds += attempt.GpuTime();
  result_.useful_gpu_seconds +=
      attempt.GpuTime() - static_cast<double>(victim.ckpt_time_attempt) *
                              attempt.placement.NumGpus();

  if (victim.kind == AttemptKind::kClean) {
    // Model-checkpoint preemption: progress persists at epoch granularity.
    const SimDuration epoch = std::max<SimDuration>(1, victim.spec.EpochDuration());
    const SimDuration executed = AttemptExecuted(victim, attempt);
    victim.clean_executed += (executed / epoch) * epoch;
    SetExecutedEpochs(victim,
                      static_cast<int>(std::min<int64_t>(
                          victim.spec.planned_epochs, victim.clean_executed / epoch)));
  }
  // A preempted failing attempt is restarted later: the trial is not consumed.

  cluster_.Release(victim.spec.id);
  RunningSetErase(victim);
  VcOf(victim).used_gpus -= victim.spec.num_gpus;
  RefreshCotenantSegments(attempt.placement, victim.spec.id);
  ++result_.preemptions;
  if (preemptions_metric_ != nullptr) {
    preemptions_metric_->Increment();
  }
  last_preemption_time_ = now;
  if (SchedEvent* e = EmitEvent(SchedEventKind::kPreempt, &victim); e != nullptr) {
    e->attempt = attempt.index;
    e->failed = attempt.failed;
    e->preempted = attempt.preempted;
    e->detail = "fairshare";
  }
  Requeue(victim);
}

void ClusterSimulation::Requeue(JobState& job) {
  job.phase = Phase::kQueued;
  job.ready_time = sim_.Now();
  job.wait = WaitRecord{};
  job.wait.ready_time = sim_.Now();
  job.eval_failures = 0;
  job.last_eval_time = -1;
  job.last_cause = DelayCause::kNone;
  job.relax_emitted = 0;
  EnqueueSorted(job);
  if (SchedEvent* e = EmitEvent(SchedEventKind::kRequeue, &job); e != nullptr) {
    if (!job.record.attempts.empty()) {
      const AttemptRecord& attempt = job.record.attempts.back();
      e->attempt = attempt.index;
      e->failed = attempt.failed;
      e->preempted = attempt.preempted;
      e->machine_fault = attempt.machine_fault;
    }
  }
  if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
    std::string_view reason = "suspend";
    bool fault_recovery = false;
    if (!job.record.attempts.empty()) {
      const AttemptRecord& attempt = job.record.attempts.back();
      if (attempt.machine_fault) {
        reason = "fault";
        fault_recovery = true;
      } else if (attempt.preempted) {
        reason = "preempt";
      } else if (attempt.failed) {
        reason = "fail";
      } else if (attempt.prerun) {
        reason = "prerun";
      }
    }
    spans->OnRunEnd(job.spec.id, sim_.Now(), reason);
    spans->OnEnqueue(job.spec.id, job.spec.vc, job.spec.user,
                     job.spec.num_gpus, sim_.Now(), fault_recovery);
  }
}

void ClusterSimulation::FinishJob(JobState& job, JobStatus status) {
  job.phase = Phase::kDone;
  job.record.status = status;
  job.record.finish_time = sim_.Now();
  ++jobs_done_;
  if (SpanTracer* spans = config_.obs.spans; spans != nullptr) {
    const std::string_view reason = status == JobStatus::kPassed ? "passed"
                                    : status == JobStatus::kKilled
                                        ? "killed"
                                        : "unsuccessful";
    // No-op for jobs rejected at submission (no running span was opened).
    spans->OnRunEnd(job.spec.id, sim_.Now(), reason);
  }
  if (SchedEvent* e = EmitEvent(SchedEventKind::kComplete, &job); e != nullptr) {
    e->status = static_cast<int>(status);
    if (!job.record.attempts.empty()) {
      const AttemptRecord& attempt = job.record.attempts.back();
      e->attempt = attempt.index;
      e->failed = attempt.failed;
      e->preempted = attempt.preempted;
      e->machine_fault = attempt.machine_fault;
    }
    e->started_out_of_order = job.record.started_out_of_order;
    e->out_of_order_benign =
        job.record.started_out_of_order && job.record.out_of_order_benign;
    e->overtaken = job.record.overtaken;
  }
}

void ClusterSimulation::ScheduleNextServerFault(ServerId s, SimTime after) {
  const auto event = fault_process_.NextServerFault(s, after);
  if (!event.has_value()) {
    return;
  }
  const FaultEvent e = *event;
  sim_.ScheduleAt(e.at, [this, e] { OnFaultOccurred(e, true); });
}

void ClusterSimulation::ScheduleNextRackFault(RackId r, SimTime after) {
  const auto event = fault_process_.NextRackFault(r, after);
  if (!event.has_value()) {
    return;
  }
  const FaultEvent e = *event;
  sim_.ScheduleAt(e.at, [this, e] { OnFaultOccurred(e, true); });
}

void ClusterSimulation::OnFaultOccurred(const FaultEvent& event, bool sampled) {
  if (jobs_done_ >= static_cast<int>(jobs_.size())) {
    return;  // trace finished; let the simulator drain
  }
  std::vector<ServerId> affected;
  if (event.rack >= 0) {
    affected = cluster_.ServersInRack(event.rack);
  } else {
    affected.push_back(event.server);
  }
  std::vector<ServerId> marked;
  for (ServerId s : affected) {
    if (health_.MarkFault(s, event.at, event.kind)) {
      marked.push_back(s);
    }
  }
  if (marked.empty()) {
    // Every target is already faulted/offline (e.g. a rack outage hitting a
    // crashed server). The renewal stream still continues.
    if (sampled) {
      if (event.rack >= 0) {
        ScheduleNextRackFault(event.rack, sim_.Now());
      } else {
        ScheduleNextServerFault(event.server, sim_.Now());
      }
    }
    return;
  }
  ++result_.machine_faults_injected;
  // The scheduler notices only after the heartbeat timeout: jobs keep
  // "running" (and burning GPU-time) through the detection window.
  sim_.ScheduleAfter(fault_process_.config().detection_delay,
                     [this, event, marked = std::move(marked), sampled] {
                       OnFaultDetected(event, marked, sampled);
                     });
}

void ClusterSimulation::OnFaultDetected(const FaultEvent& event,
                                        std::vector<ServerId> servers, bool sampled) {
  if (jobs_done_ >= static_cast<int>(jobs_.size())) {
    // Nothing left to protect; skip the drain but keep health bookkeeping
    // consistent so asserts hold.
    for (ServerId s : servers) {
      health_.MarkOffline(s);
      health_.MarkRepaired(s);
    }
    return;
  }
  // Collect victims before draining: first-seen order over the marked
  // servers' tenant lists keeps this deterministic.
  std::vector<JobId> victims;
  for (ServerId s : servers) {
    for (const auto& tenant : cluster_.TenantsOnServer(s)) {
      if (std::find(victims.begin(), victims.end(), tenant.job) == victims.end()) {
        victims.push_back(tenant.job);
      }
    }
  }
  const FailureReason reason = ReasonForFault(event.kind);
  for (JobId id : victims) {
    JobState& job = StateOf(id);
    if (job.phase == Phase::kRunning) {
      KillAttemptForFault(job, reason, event.at);
    }
  }
  for (ServerId s : servers) {
    health_.MarkOffline(s);
    cluster_.SetServerOffline(s, true);
  }
  result_.machine_fault_server_downs += static_cast<int64_t>(servers.size());
  const SimDuration repair = std::max<SimDuration>(1, event.repair);
  sim_.ScheduleAfter(repair, [this, event, servers = std::move(servers), sampled] {
    OnFaultRepaired(event, servers, sampled);
  });
  if (!victims.empty()) {
    RequestSchedulingPass(0);
  }
}

void ClusterSimulation::OnFaultRepaired(const FaultEvent& event,
                                        std::vector<ServerId> servers, bool sampled) {
  for (ServerId s : servers) {
    cluster_.SetServerOffline(s, false);
    health_.MarkRepaired(s);
  }
  if (jobs_done_ >= static_cast<int>(jobs_.size())) {
    return;  // no reschedule: let the simulator terminate
  }
  RequestSchedulingPass(0);
  if (sampled) {
    if (event.rack >= 0) {
      ScheduleNextRackFault(event.rack, sim_.Now());
    } else {
      ScheduleNextServerFault(event.server, sim_.Now());
    }
  }
}

void ClusterSimulation::KillAttemptForFault(JobState& job, FailureReason reason,
                                            SimTime fault_time) {
  assert(job.phase == Phase::kRunning);
  const SimTime now = sim_.Now();
  sim_.Cancel(job.end_event);
  if (job.quantum_event.value != 0) {
    sim_.Cancel(job.quantum_event);
    job.quantum_event = EventId{};
  }
  CloseSegment(job);
  AttemptRecord& attempt = job.record.attempts.back();
  attempt.end = now;
  attempt.failed = true;
  attempt.machine_fault = true;
  attempt.true_reason = reason;
  attempt.log_tail = synthesizer_.LinesFor(reason, rng_);
  job.record.gpu_seconds += attempt.GpuTime();
  const bool ckpt_explicit = job.ckpt_period > 0;  // before teardown clears it
  CkptOnAttemptStopped(job);  // a fault mid-write aborts the write: nothing
                              // becomes durable, per the I/O model contract

  // Work attribution: the attempt produced nothing after the fault struck
  // (the detection window is dead time), and everything after the last
  // checkpoint is lost too.
  const SimTime fault_clamped =
      std::min(now, std::max(fault_time, attempt.start));
  const int gpus = attempt.placement.NumGpus();
  double lost;
  if (ckpt_explicit) {
    // Explicit checkpoint writes: only *completed* writes are durable, so the
    // job rolls back to ckpt_durable and everything since — training past the
    // last completed write plus the undetected dead window — is lost.
    const SimDuration training = AttemptExecuted(job, attempt);
    lost = static_cast<double>(job.clean_executed + training -
                               job.ckpt_durable) *
           gpus;
    job.clean_executed = job.ckpt_durable;
    const SimDuration epoch = std::max<SimDuration>(1, job.spec.EpochDuration());
    SetExecutedEpochs(job, static_cast<int>(std::min<int64_t>(
                               job.spec.planned_epochs, job.clean_executed / epoch)));
  } else if (job.kind == AttemptKind::kClean) {
    lost = static_cast<double>(now - fault_clamped) * gpus;
    const SimDuration produced =
        job.clean_executed + (fault_clamped - attempt.start);
    const SimDuration ckpt = config_.scheduler.checkpoint_period;
    const SimDuration resumed = ckpt > 0 ? (produced / ckpt) * ckpt : 0;
    lost += static_cast<double>(produced - resumed) * gpus;
    job.clean_executed = resumed;
    const SimDuration epoch = std::max<SimDuration>(1, job.spec.EpochDuration());
    SetExecutedEpochs(job, static_cast<int>(std::min<int64_t>(
                               job.spec.planned_epochs, job.clean_executed / epoch)));
  } else {
    lost = static_cast<double>(now - fault_clamped) * gpus;
    // The trial is not consumed, but checkpoints still bound the loss: a
    // deterministic bug re-manifests after the remaining RTF, so the retried
    // attempt resumes from the last checkpoint of the doomed run.
    const SimDuration produced =
        job.failing_resume + (fault_clamped - attempt.start);
    const SimDuration ckpt = config_.scheduler.checkpoint_period;
    const SimDuration resumed = ckpt > 0 ? (produced / ckpt) * ckpt : 0;
    lost += static_cast<double>(produced - resumed) * gpus;
    job.failing_resume = resumed;
  }
  result_.machine_fault_lost_gpu_seconds += lost;
  ++result_.machine_fault_kills;
  result_.allocated_gpu_seconds += attempt.GpuTime();
  result_.useful_gpu_seconds +=
      attempt.GpuTime() - lost -
      static_cast<double>(job.ckpt_time_attempt) * gpus;
  if (fault_kills_metric_ != nullptr) {
    fault_kills_metric_->Increment();
    lost_gpu_metric_->Add(lost);
  }
  if (SchedEvent* e = EmitEvent(SchedEventKind::kFaultKill, &job); e != nullptr) {
    e->attempt = attempt.index;
    e->failed = true;
    e->machine_fault = true;
    e->lost_gpu_seconds = lost;
    e->detail = std::string(ToString(reason));
  }

  cluster_.Release(job.spec.id);
  RunningSetErase(job);
  VcOf(job).used_gpus -= job.spec.num_gpus;
  RefreshCotenantSegments(attempt.placement, job.spec.id);
  // Machine faults are the cluster's fault, not the job's: no retry-policy
  // consult, no ObserveFailure (they must not poison the predictive
  // blacklist), no failure-trial consumption — just requeue and resume.
  Requeue(job);
}

void ClusterSimulation::TakeSnapshot() {
  SimulationResult::OccupancySnapshot snap;
  snap.time = sim_.Now();
  snap.occupancy = cluster_.Occupancy();
  snap.empty_server_fraction = cluster_.EmptyServerFraction();
  snap.racks_with_empty_servers = cluster_.RacksWithEmptyServers();
  snap.executed_epochs_total = executed_epochs_total_;
  snap.offline_servers = cluster_.NumOfflineServers();
  snap.machine_fault_kills_total = result_.machine_fault_kills;
  snap.machine_fault_lost_gpu_seconds_total = result_.machine_fault_lost_gpu_seconds;
  snap.ckpt_writes_completed_total = result_.ckpt_writes_completed;
  snap.ckpt_overhead_gpu_seconds_total = result_.ckpt_overhead_gpu_seconds;
  snap.ckpt_stall_gpu_seconds_total = result_.ckpt_stall_gpu_seconds;
  if (occupancy_metric_ != nullptr) {
    occupancy_metric_->Set(snap.occupancy);
  }
  result_.occupancy_snapshots.push_back(snap);
  if (jobs_done_ < static_cast<int>(jobs_.size())) {
    sim_.ScheduleAfter(config_.snapshot_period, [this] { TakeSnapshot(); });
  }
}

}  // namespace philly
