#include "src/core/event_join.h"

#include <unordered_map>
#include <utility>

namespace philly {
namespace {

void SetError(std::string* error, const SchedEvent& event, const char* what) {
  if (error != nullptr && error->empty()) {
    *error = std::string(what) + " (event '" + std::string(ToString(event.kind)) +
             "' for job " + std::to_string(event.job) + " at t=" +
             std::to_string(event.time) + ")";
  }
}

}  // namespace

SimulationResult JoinSchedulerEvents(const std::vector<SchedEvent>& events,
                                     std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  SimulationResult result;
  std::unordered_map<JobId, size_t> index;

  const auto find_job = [&](const SchedEvent& e) -> JobRecord* {
    const auto it = index.find(e.job);
    if (it == index.end()) {
      SetError(error, e, "event for a job that was never submitted");
      return nullptr;
    }
    return &result.jobs[it->second];
  };
  // Closes the job's open attempt at the event's timestamp, copying the
  // attempt-outcome flags the closing event carries.
  const auto close_attempt = [&](JobRecord& job, const SchedEvent& e) {
    if (e.attempt < 0) {
      return;
    }
    if (job.attempts.empty() || job.attempts.back().index != e.attempt) {
      SetError(error, e, "closing event does not match the open attempt");
      return;
    }
    AttemptRecord& attempt = job.attempts.back();
    attempt.end = e.time;
    attempt.failed = e.failed;
    attempt.preempted = e.preempted;
    attempt.machine_fault = e.machine_fault;
    if (attempt.prerun) {
      result.prerun_gpu_seconds += static_cast<double>(attempt.Duration());
      if (attempt.failed) {
        ++result.prerun_catches;
      }
    }
  };

  for (const SchedEvent& e : events) {
    switch (e.kind) {
      case SchedEventKind::kSubmit: {
        if (index.count(e.job) != 0) {
          SetError(error, e, "job submitted twice");
          break;
        }
        JobRecord job;
        job.spec.id = e.job;
        job.spec.vc = e.vc;
        job.spec.user = e.user;
        job.spec.num_gpus = e.gpus;
        job.spec.submit_time = e.time;
        index.emplace(e.job, result.jobs.size());
        result.jobs.push_back(std::move(job));
        break;
      }
      case SchedEventKind::kQueued:
      case SchedEventKind::kLocalityRelax:
      case SchedEventKind::kBackoff:
      case SchedEventKind::kRoute:
        // Queue entries, pass mechanics, and fleet routing decisions carry no
        // record state; they exist for timeline inspection. (Route events
        // live in the fleet-level stream, not a cluster's scheduler stream,
        // but a reader that concatenates them must still not trip here.)
        break;
      case SchedEventKind::kSchedule: {
        JobRecord* job = find_job(e);
        if (job == nullptr) {
          break;
        }
        WaitRecord wait;
        wait.ready_time = e.ready_time;
        wait.wait = e.wait;
        wait.fair_share_time = e.fair_share_time;
        wait.fragmentation_time = e.fragmentation_time;
        wait.sched_attempts = e.sched_attempts;
        job->waits.push_back(wait);
        AttemptRecord attempt;
        attempt.index = e.attempt;
        attempt.start = e.time;
        attempt.end = e.time;  // closed by the matching requeue/complete
        if (e.detail == "prerun") {
          attempt.prerun = true;
          ++result.prerun_jobs;
        } else {
          attempt.placement = DecodePlacement(e.placement);
        }
        if (static_cast<int>(job->attempts.size()) != e.attempt) {
          SetError(error, e, "attempt index out of sequence");
        }
        job->attempts.push_back(std::move(attempt));
        if (e.detail == "pass") {
          ++result.scheduling_decisions;
          if (e.out_of_order) {
            ++result.out_of_order_decisions;
            job->started_out_of_order = true;
            job->out_of_order_benign = e.benign;
            if (e.benign) {
              ++result.out_of_order_benign;
            }
          }
        }
        break;
      }
      case SchedEventKind::kPreempt: {
        if (find_job(e) == nullptr) {
          break;
        }
        if (e.detail == "fairshare") {
          ++result.preemptions;
        } else if (e.detail == "priority") {
          ++result.priority_preemptions;
        }
        // Timeslice suspensions have no dedicated counter; the requeue that
        // follows closes the attempt.
        break;
      }
      case SchedEventKind::kMigrate: {
        if (find_job(e) == nullptr) {
          break;
        }
        ++result.migrations;
        break;
      }
      case SchedEventKind::kFaultKill: {
        if (find_job(e) == nullptr) {
          break;
        }
        ++result.machine_fault_kills;
        result.machine_fault_lost_gpu_seconds += e.lost_gpu_seconds;
        break;
      }
      case SchedEventKind::kRequeue: {
        JobRecord* job = find_job(e);
        if (job == nullptr) {
          break;
        }
        close_attempt(*job, e);
        break;
      }
      case SchedEventKind::kComplete: {
        JobRecord* job = find_job(e);
        if (job == nullptr) {
          break;
        }
        close_attempt(*job, e);
        if (e.status < 0 || e.status > static_cast<int>(JobStatus::kUnsuccessful)) {
          SetError(error, e, "completion carries an unknown status");
          break;
        }
        job->status = static_cast<JobStatus>(e.status);
        job->finish_time = e.time;
        job->started_out_of_order = e.started_out_of_order;
        // The record default is benign=true; the event carries the flag only
        // for jobs that actually started out of order.
        job->out_of_order_benign =
            !e.started_out_of_order || e.out_of_order_benign;
        job->overtaken = e.overtaken;
        break;
      }
      case SchedEventKind::kCkptBegin:
      case SchedEventKind::kCkptEnd:
      case SchedEventKind::kCkptStall:
        // Checkpoint I/O timeline markers; the stall/overhead accounting they
        // mirror lives in SimulationResult counters, not per-job records.
        break;
    }
  }
  return result;
}

}  // namespace philly
