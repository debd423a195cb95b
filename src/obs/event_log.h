// Structured scheduler event stream — the YARN-scheduler-log analogue of the
// paper's log join (§3). The simulation's in-memory records already carry the
// framework (stdout) and telemetry streams; the EventLog adds the missing
// scheduler-decision stream so analyses can be rebuilt from logs alone, the
// way the paper's pipeline joins its three sources.
//
// One SchedEvent per scheduler decision, appended in simulation callback
// order (which is deterministic), serialized as NDJSON: one JSON object per
// line with a fixed key order, so two runs of the same config produce
// byte-identical streams regardless of thread count.
//
// The log is intentionally NOT thread-safe: one EventLog belongs to exactly
// one simulation run. Cross-run aggregation belongs in MetricsRegistry.

#ifndef SRC_OBS_EVENT_LOG_H_
#define SRC_OBS_EVENT_LOG_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/sim_time.h"
#include "src/obs/record_buffer.h"

namespace philly {

// The scheduler decision vocabulary. Every kind maps 1:1 to a stable NDJSON
// `ev` tag (see ToString); new kinds must be appended to keep tags stable.
enum class SchedEventKind {
  kSubmit,         // job arrived at the scheduler
  kQueued,         // job entered its VC queue
  kLocalityRelax,  // waiting job's placement constraint was relaxed a level
  kBackoff,        // a pass left jobs waiting; next pass delayed by `delay`
  kSchedule,       // attempt started (detail: pass | migrate | prerun)
  kPreempt,        // attempt stopped for another job (detail: fairshare |
                   // priority | timeslice)
  kMigrate,        // attempt suspended by the defragmentation pass
  kFaultKill,      // attempt killed by a machine fault (detail: reason)
  kRequeue,        // job re-entered its VC queue after an attempt ended
  kComplete,       // job reached a final status
  kCkptBegin,      // checkpoint write started draining (detail: policy)
  kCkptEnd,        // checkpoint write completed, or aborted mid-flight
                   // (detail: "interrupted"); delay = elapsed write time
  kCkptStall,      // contention stretch of a completed write beyond its
                   // uncontended cost; delay = stall seconds
  kRoute,          // fleet front door routed a job to a cluster (detail:
                   // router policy; cluster/home + queue/free inputs below)
};

inline constexpr int kNumSchedEventKinds = 14;

std::string_view ToString(SchedEventKind kind);

// One scheduler decision. Only the fields relevant to `kind` are meaningful;
// the rest keep their defaults and are omitted from the NDJSON encoding.
struct SchedEvent {
  SimTime time = 0;
  SchedEventKind kind = SchedEventKind::kSubmit;
  JobId job = kNoJob;  // kNoJob for cluster-level events (backoff)
  int32_t vc = -1;
  int32_t user = -1;
  int gpus = 0;
  int attempt = -1;  // attempt index for schedule/preempt/requeue/complete

  // kSchedule: the wait record this start closed, plus decision context.
  SimTime ready_time = 0;
  SimDuration wait = 0;
  SimDuration fair_share_time = 0;
  SimDuration fragmentation_time = 0;
  int sched_attempts = 0;       // failed placement evaluations in the wait
  bool out_of_order = false;    // started while an earlier job waited
  bool benign = false;          // the overtaken job's opportunity survived
  std::string placement;        // EncodePlacement of the gang

  // kRequeue/kComplete: state of the attempt the event closes.
  bool failed = false;
  bool preempted = false;
  bool machine_fault = false;

  // kComplete: final status (JobStatus as int; -1 = not a completion) and the
  // job-level out-of-order flags the record accumulated.
  int status = -1;
  bool started_out_of_order = false;
  bool out_of_order_benign = false;
  bool overtaken = false;

  // kLocalityRelax / kBackoff.
  int relax_level = 0;
  SimDuration delay = 0;

  // kFaultKill: GPU-seconds thrown away by this kill.
  // kCkptStall: GPU-seconds of contention stretch (stall x gang GPUs).
  double lost_gpu_seconds = 0.0;

  // kCkpt*: rack whose shared storage the write drains (-1 = not a
  // checkpoint event; omitted from the encoding).
  int32_t rack = -1;

  // kRoute: destination cluster, the job's home cluster, and the router's
  // decision inputs at submission time (its fluid-model queue depths and the
  // destination's free-GPU estimate). All omitted at defaults, so streams
  // from single-cluster runs are unchanged.
  int32_t cluster = -1;
  int32_t home = -1;
  int64_t home_queue = -1;
  int64_t dest_queue = -1;
  int64_t dest_free = -1;

  // Kind-specific tag: schedule source ("pass" | "migrate" | "prerun"),
  // preemption mode ("fairshare" | "priority" | "timeslice"), or the
  // fault-kill failure reason.
  std::string detail;

  bool operator==(const SchedEvent&) const = default;
};

// An event's NDJSON line, appended to `out` or returned, and strict reader
// (field table: event_log.cc).
void AppendNdjsonLine(std::string& out, const SchedEvent& event);
std::string ToNdjsonLine(const SchedEvent& event);
bool SchedEventFromNdjsonLine(std::string_view line, SchedEvent* event,
                              std::string* error);

// The scheduler stream of one run, buffered or streamed to disk as the run
// produces it (record_buffer.h).
class EventLog {
 public:
  // Writes every later full batch of events to `out` instead of keeping the
  // whole stream; WriteNdjson then writes the tail. Call before the run.
  void StreamTo(std::ostream* out) { events_.StreamTo(out); }

  // Appends and returns a new event for the caller to fill in. The reference
  // is valid until the next Append.
  SchedEvent& Append(SchedEventKind kind, SimTime time, JobId job);

  // Pre-sizes the stream. Growth reallocations move every buffered event
  // (~216 bytes each), which dominates append cost on hot paths; the
  // simulation reserves an events-per-job estimate up front. A streaming
  // log reserves at most one batch.
  void Reserve(size_t n) { events_.Reserve(n); }

  // Drops buffered events but keeps capacity, so one log can be reused
  // across sequential runs (write the stream out, clear, run again) without
  // re-faulting its buffer. A log still belongs to one run at a time.
  void Clear() { events_.Clear(); }

  // The events still held: the whole stream when buffered, the current batch
  // when streaming.
  const std::vector<SchedEvent>& events() const { return events_.held(); }
  // Events appended since the last Clear, written out or held.
  size_t size() const { return events_.size(); }
  bool empty() const { return size() == 0; }

  // One JSON object per line, fixed key order, default-valued fields
  // omitted; writes the events still held.
  void WriteNdjson(std::ostream& out) const { events_.WriteNdjson(out); }

  // Parses a stream written by WriteNdjson, up to the first line that is not
  // canonical, which *error names ("line N, byte B, key "K": ..."; else empty).
  static std::vector<SchedEvent> ReadNdjson(std::istream& in,
                                            std::string* error = nullptr);

 private:
  RecordBuffer<SchedEvent> events_;
};

}  // namespace philly

#endif  // SRC_OBS_EVENT_LOG_H_
