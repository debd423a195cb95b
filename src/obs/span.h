// Causal span tracer — the queueing-delay attribution engine (§3.1.1, Table 2
// made per-job). The EventLog records *that* the scheduler decided; the span
// stream records *why a job waited*: every failed placement evaluation charges
// the elapsed interval to an explicit blame code emitted at the decision site,
// so each job's lifecycle reads as a span tree
//
//   submit -> queued[blame...] -> running -> (preempted | ckpt-stalled |
//   fault-killed) -> queued[blame...] -> ... -> complete
//
// The stream satisfies an exact *blame-conservation identity*: for every
// waiting period, the blame child spans tile [ready_time, start] with no gaps
// or overlaps, so their durations sum to the measured queueing delay to the
// integral second — and the fairness/fragmentation subtotals equal the native
// WaitRecord attribution exactly (src/core/span_analysis.h verifies both).
//
// Like the other sinks, the tracer is per-run, not thread-safe, and strictly
// observational: attaching it never perturbs the simulation (the PR 3
// null-sink ground rule), and the off state costs nothing.

#ifndef SRC_OBS_SPAN_H_
#define SRC_OBS_SPAN_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/sim_time.h"
#include "src/obs/record_buffer.h"

namespace philly {

// Why a waiting interval elapsed. The first two refine the paper's two-way
// split at the decision site; the rest cover the intervals the native
// attribution leaves uncharged, so the blame always sums to the full wait.
// Appended-only (stable NDJSON tags), like SchedEventKind.
enum class BlameCode {
  kFairnessShareCap,  // VC at/over quota at the failed evaluation (Table 2
                      // "fair-share"; equals WaitRecord::fair_share_time)
  kFragmentation,     // no placement even fully relaxed: free GPUs exist but
                      // not in a usable shape
  kLocalityWait,      // a fully-relaxed placement existed; the job is holding
                      // out for locality at its current relax level
                      // (kFragmentation + kLocalityWait equal
                      // WaitRecord::fragmentation_time)
  kBackoff,           // pre-first-evaluation stretch of a wait: the job sat
                      // queued until the next scheduling pass looked at it
  kFaultRecovery,     // pre-evaluation stretch after a machine-fault kill
  kCkptStall,         // checkpoint-write contention stretch (within a running
                      // span; not part of the queueing identity)
  kRouterQueue,       // fleet mode: pre-evaluation stretch of a spilled job's
                      // first wait, charged to the front-door router
};

inline constexpr int kNumBlameCodes = 7;

std::string_view ToString(BlameCode code);

// Span vocabulary. `queued` spans cover a whole waiting period and own the
// `blame` children that tile it; `running` spans cover one placed (or prerun)
// attempt; `ckpt` spans mark checkpoint-write stalls inside a running span.
enum class SpanKind { kQueued, kBlame, kRunning, kCkpt };

inline constexpr int kNumSpanKinds = 4;

std::string_view ToString(SpanKind kind);

// One closed span. Only the fields relevant to `kind` are meaningful; the
// rest keep defaults and are omitted from the NDJSON encoding.
struct SpanRecord {
  SimTime start = 0;
  SimDuration dur = 0;
  SpanKind kind = SpanKind::kQueued;
  BlameCode code = BlameCode::kBackoff;  // blame / ckpt spans only
  JobId job = kNoJob;
  int32_t vc = -1;
  int32_t user = -1;
  int gpus = 0;
  int wait_index = -1;  // queued/blame: index into JobRecord::waits
  int attempt = -1;     // running/ckpt: attempt index
  // running: how the attempt ended ("passed" | "killed" | "unsuccessful" |
  // "preempt" | "fault" | "fail" | "suspend" | "prerun");
  // ckpt: "write" | "interrupted".
  std::string detail;

  bool operator==(const SpanRecord&) const = default;
};

// A span's NDJSON line, appended to `out` or returned, and strict reader
// (field table: span.cc).
void AppendNdjsonLine(std::string& out, const SpanRecord& span);
std::string ToNdjsonLine(const SpanRecord& span);
bool SpanRecordFromNdjsonLine(std::string_view line, SpanRecord* span,
                              std::string* error);

// The span stream of one run (EventLog discipline: not thread-safe, fixed
// NDJSON key order, byte-identical across thread counts), buffered or
// streamed to disk as the run produces it (record_buffer.h).
class SpanLog {
 public:
  // Writes every later full batch of spans to `out` instead of keeping the
  // whole stream; WriteNdjson then writes the tail. Call before the run.
  void StreamTo(std::ostream* out) { spans_.StreamTo(out); }
  // The reference is valid until the next Append.
  SpanRecord& Append() { return spans_.Append(); }
  void Reserve(size_t n) { spans_.Reserve(n); }
  void Clear() { spans_.Clear(); }

  // The spans still held: the whole stream when buffered, the current batch
  // when streaming.
  const std::vector<SpanRecord>& spans() const { return spans_.held(); }
  // Spans appended since the last Clear, written out or held.
  size_t size() const { return spans_.size(); }
  bool empty() const { return size() == 0; }

  // Writes the spans still held.
  void WriteNdjson(std::ostream& out) const { spans_.WriteNdjson(out); }
  static std::vector<SpanRecord> ReadNdjson(std::istream& in,
                                            std::string* error = nullptr);

 private:
  RecordBuffer<SpanRecord> spans_;
};

// Chrome trace-event export (the TraceProfiler format): one complete slice
// per span, pid = VC, tid = job, ts/dur in microseconds of simulated time.
// Open chrome://tracing or Perfetto on the result to browse the span tree.
void WriteSpanChromeTrace(std::ostream& out, const std::vector<SpanRecord>& spans);

// The sink ClusterSimulation drives. It mirrors the scheduler's native
// attribution exactly: each failed evaluation closes the interval since the
// previous one and charges it to the blame code diagnosed *at that interval's
// start* (AttributeWaitTime's convention), and the stretch before the first
// evaluation — which the native WaitRecord leaves uncharged — is charged to
// kBackoff / kFaultRecovery / kRouterQueue depending on how the wait began.
// Adjacent same-code intervals coalesce, so stream size stays proportional to
// cause *changes*, not scheduling passes.
class SpanTracer {
 public:
  // Pre-sizes per-job tracking and the span buffer (~4 spans/job).
  void Reserve(size_t num_jobs);
  void Clear();

  // Fleet front door: the job was routed off its home cluster, so the
  // pre-evaluation stretch of its *first* wait is the router's fault.
  void MarkRouterQueued(JobId job);

  // --- ClusterSimulation hooks (deterministic callback order) ---
  void OnEnqueue(JobId job, int32_t vc, int32_t user, int gpus, SimTime now,
                 bool fault_recovery);
  // A placement evaluation failed; `code` is the refined cause diagnosed now
  // (it blames the interval that STARTS here, closing the previous one).
  void OnEvalFail(JobId job, SimTime now, BlameCode code);
  // The wait closed and a placed attempt starts: emits the queued span, its
  // blame children, and opens the running span.
  void OnStart(JobId job, int32_t vc, int32_t user, int gpus, SimTime now,
               int wait_index, int attempt);
  // Opens a running span without a preceding wait (prerun pool attempts).
  void OnRunStart(JobId job, int32_t vc, int32_t user, int gpus, SimTime now,
                  int attempt);
  // Closes the open running span, if any; `reason` lands in `detail`.
  void OnRunEnd(JobId job, SimTime now, std::string_view reason);
  // A checkpoint write's contention stretch [now - stall, now].
  void OnCkptStall(JobId job, SimTime now, SimDuration stall,
                   std::string_view detail);

  // Cumulative per-VC x per-code attributed seconds (VC-major, kNumBlameCodes
  // per VC), for the telemetry rollup. Empty until the first attribution.
  void FillVcBlame(std::vector<int64_t>& out) const;

  const SpanLog& log() const { return log_; }
  SpanLog& log() { return log_; }

 private:
  struct Seg {
    SimTime start = 0;
    SimTime end = 0;
    BlameCode code = BlameCode::kBackoff;
  };
  struct Track {
    int32_t vc = -1;
    int32_t user = -1;
    int gpus = 0;
    bool queued = false;
    bool ever_enqueued = false;
    bool router_queued = false;
    bool running = false;
    SimTime queued_at = 0;
    SimTime mark = 0;  // start of the interval the next evaluation closes
    BlameCode pending = BlameCode::kBackoff;  // code for [mark, next eval]
    SimTime run_start = 0;
    int run_attempt = -1;
    std::vector<Seg> segs;  // coalesced blame intervals of the current wait
  };

  Track& TrackOf(JobId job);
  void Charge(Track& track, SimTime upto);
  SpanRecord& Emit(SpanKind kind, const Track& track, JobId job, SimTime start,
                   SimDuration dur);

  std::vector<Track> tracks_;  // indexed by JobId (dense ids)
  std::vector<std::array<int64_t, kNumBlameCodes>> vc_blame_;
  SpanLog log_;
};

}  // namespace philly

#endif  // SRC_OBS_SPAN_H_
