// Per-minute cluster telemetry stream — the Ganglia analogue of the paper's
// three-way log join (§2.4). The EventLog captures scheduler decisions and
// the trace writer the per-job framework logs; the ClusterTimeSeries adds the
// third source: cluster state sampled on a fixed wall-clock cadence,
// independent of when scheduler events happen to fire.
//
// Samples are taken from a Simulator time-advance hook, so recording is
// passive: it never schedules events, and the sampled state at minute m is
// the piecewise-constant pre-event state (an event AT m has not yet run).
// One ClusterTimeSeries belongs to exactly one simulation run (not
// thread-safe, like EventLog); serialization is NDJSON with fixed key order
// and shortest-round-trip doubles, so streams are byte-identical across
// PHILLY_BENCH_THREADS.
//
// Per-server GPU utilization is joined in with the same AR(1) jitter series
// GangliaSampler applies in analysis (Ar1Jitter, sampler.h): one step per
// running job per sampled minute, seeded per (run seed, job, attempt), so
// the stream's observed utilization is deterministic and cross-checkable
// against AnalyzeUtilization's digest (see rollup.h).

#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/sim_time.h"
#include "src/obs/record_buffer.h"
#include "src/telemetry/sampler.h"

namespace philly {

// One telemetry scan line. Scalars with default values are omitted from the
// NDJSON encoding (event_log style); array fields are always present.
struct TelemetrySample {
  SimTime time = 0;  // sample timestamp, aligned to the sampling grid

  // Cluster occupancy.
  int used_gpus = 0;
  int free_gpus = 0;
  double occupancy = 0.0;  // used / (used + free), 0 when the cluster is empty
  int running_jobs = 0;
  int queued_jobs = 0;

  // Fragmentation / placement-index view.
  int busy_servers = 0;
  int empty_servers = 0;
  int racks_with_empty = 0;
  int offline_servers = 0;
  std::vector<int> rack_free_gpus;  // index = rack id

  // Per-VC scheduler state (index = VC id).
  std::vector<int> vc_queued;
  std::vector<int> vc_running;
  std::vector<int> vc_used_gpus;

  // Busy servers bucketed by mean observed GPU utilization decile
  // (0-10%, ..., 90-100%); Fig 8-style fleet utilization shape. Fixed-size
  // so a sample costs one fewer heap allocation per simulated minute.
  std::array<int, 10> util_deciles = {};

  // Cumulative scheduler/fault counters as of this sample (monotone).
  int64_t locality_relaxations = 0;
  int64_t backoffs = 0;
  int64_t preemptions = 0;
  int64_t migrations = 0;
  int64_t fault_kills = 0;
  double lost_gpu_seconds = 0.0;

  // Checkpoint I/O view (populated only when the I/O model is enabled; the
  // array is omitted from the encoding when empty so disabled-model streams
  // stay byte-identical to pre-checkpoint builds). ckpt_rack_writers[r] is
  // the number of writes draining rack r's storage at sample time; the
  // scalars are cumulative completed-write and cost counters.
  std::vector<int> ckpt_rack_writers;
  int64_t ckpt_writes = 0;
  double ckpt_overhead_gpu_seconds = 0.0;
  double ckpt_stall_gpu_seconds = 0.0;

  // Per-VC x per-blame-code cumulative attributed queueing seconds, VC-major
  // (kNumBlameCodes entries per VC; see src/obs/span.h). Populated only when
  // the span tracer is attached — empty arrays are omitted from the encoding
  // so tracer-off streams stay byte-identical to pre-span builds.
  std::vector<int64_t> vc_blame_s;

  // Busy-GPU-weighted utilization, percent.
  double util_expected_pct = 0.0;  // from the loss-curve expectation
  double util_observed_pct = 0.0;  // with the Ganglia AR(1) jitter join

  bool operator==(const TelemetrySample&) const = default;
};

// A sample's NDJSON line, appended to `out` or returned, and strict reader
// (field table: timeseries.cc).
void AppendNdjsonLine(std::string& out, const TelemetrySample& sample);
std::string ToNdjsonLine(const TelemetrySample& sample);
bool TelemetrySampleFromNdjsonLine(std::string_view line, TelemetrySample* sample,
                                   std::string* error);

// Exact aggregates for cross-checking a telemetry stream. All sums are
// accumulated in a fixed order (file order for samples, job order for the
// utilization aggregates), so equal inputs give bitwise-equal digests.
struct TelemetryDigest {
  // Size classes for the utilization aggregates: the paper's representative
  // job sizes (1, 4, 8, 16 GPUs) plus an all-jobs overall class.
  static constexpr int kNumClasses = 5;
  static constexpr int kOverallClass = 4;

  // --- derived from the sample lines, in file order ---
  int64_t samples = 0;
  int64_t used_gpu_samples = 0;  // sum of used_gpus
  int64_t queue_depth_max = 0;
  double occupancy_sum = 0.0;
  double util_expected_sum = 0.0;  // percent-valued samples
  double util_observed_sum = 0.0;

  // --- derived from the native job records (ComputeUtilDigest) ---
  int64_t jobs = 0;
  int64_t segments = 0;
  std::array<double, kNumClasses> util_weight = {};        // sample weights
  std::array<double, kNumClasses> util_weighted_sum = {};  // value * weight

  bool operator==(const TelemetryDigest&) const = default;
};

// Deterministic per-minute recorder. The owning ClusterSimulation drives it:
// BeginRun once, then AppendSample at every grid time crossed by the clock,
// filling the returned sample in place; ObserveUtilPct advances the per-job
// AR(1) jitter stream (exactly once per running job per sampled minute).
// Samples are buffered or streamed to disk as the run produces them
// (record_buffer.h).
class ClusterTimeSeries {
 public:
  explicit ClusterTimeSeries(SimDuration period = Minutes(1),
                             SamplerConfig sampler = {});

  SimDuration period() const { return period_; }

  // Writes every later full batch of samples to `out` instead of keeping the
  // whole stream; WriteNdjson then writes the tail and the digest line. Call
  // before the run.
  void StreamTo(std::ostream* out) { samples_.StreamTo(out); }

  // Pre-sizes the sample buffer (cheap enabled-path, like EventLog::Reserve).
  void Reserve(size_t samples);
  // Drops all samples and jitter state so the recorder can be reused.
  void Clear();

  // Starts a run: resets per-run state and seeds the utilization join.
  void BeginRun(uint64_t seed);

  // Next unsampled grid time (first grid point strictly after the last
  // sample; the grid starts at time 0, which is never sampled — it is the
  // run's epoch, before any arrival).
  SimTime NextSampleTime() const;

  // Appends a sample at grid time `t` (must equal NextSampleTime()) and
  // returns it for the caller to fill. The reference is valid until the
  // next AppendSample.
  TelemetrySample& AppendSample(SimTime t);

  // Advances the AR(1) jitter stream for `job` and returns the observed
  // utilization in percent for `expected_util` (a fraction). Streams are
  // (re)seeded per (run seed, job, attempt).
  double ObserveUtilPct(JobId job, int attempt, double expected_util);

  // The samples still held: the whole stream when buffered, the current
  // batch when streaming.
  const std::vector<TelemetrySample>& samples() const { return samples_.held(); }
  // Samples appended since BeginRun, written out or held.
  size_t size() const { return samples_.size(); }

  // The sample-derived half of the digest over every sample since BeginRun,
  // written out or held; equal to DigestOfSamples of the whole stream.
  TelemetryDigest SampleDigest() const;

  // NDJSON: one line per held sample, fixed key order; when `digest` is
  // non-null a final digest line is appended for self-integrity checks.
  void WriteNdjson(std::ostream& out, const TelemetryDigest* digest = nullptr) const;

  // Reads a stream written by WriteNdjson, up to the first line that is not
  // canonical ("line N, byte B, key "K": ..." in *error). The digest line is
  // accepted once, last, into *digest (found_digest says if it was seen).
  static std::vector<TelemetrySample> ReadNdjson(std::istream& in,
                                                 TelemetryDigest* digest,
                                                 bool* found_digest,
                                                 std::string* error);

 private:
  struct UtilStream {
    int attempt = -1;
    Ar1Jitter jitter;
  };

  SimDuration period_;
  SamplerConfig sampler_;
  uint64_t run_seed_ = 0;
  int64_t last_index_ = 0;  // grid index of the last appended sample
  RecordBuffer<TelemetrySample> samples_;
  // Sample half of the digest over the samples already written out.
  TelemetryDigest written_digest_;
  std::vector<UtilStream> util_streams_;  // indexed by JobId (dense ids)
};

}  // namespace philly

#endif  // SRC_OBS_TIMESERIES_H_
