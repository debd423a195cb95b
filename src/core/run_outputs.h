// The outputs of one run, each declared once: the option that asks for it,
// its file, its manifest key, the recorders it needs and how it is written.
// `phillyctl simulate`, `report` and `fleet` each build one list. Before the
// run, Open checks and opens every file (as `<path>.partial` until committed,
// src/obs/output_file.h) and Attach wires the run's recorders, by one rule
// for a single run and a fleet's members alike; after it, Finish writes and
// digests every file, then the manifest.

#ifndef SRC_CORE_RUN_OUTPUTS_H_
#define SRC_CORE_RUN_OUTPUTS_H_

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/html_report.h"
#include "src/obs/manifest.h"
#include "src/obs/observability.h"
#include "src/obs/output_file.h"
#include "src/sched/records.h"

namespace philly {

// The recorders of ObservabilityConfig, as bits of a mask.
enum Recorder : unsigned {
  kEventLog = 1u << 0,
  kMetrics = 1u << 1,
  kProfiler = 1u << 2,
  kTimeSeries = 1u << 3,
  kSpanTracer = 1u << 4,
};

// What the outputs of `simulate` and `report` record during the run and read
// after it. RunOutputs::Attach attaches the recorders its outputs need.
struct SimulateRun {
  EventLog events;
  MetricsRegistry metrics;
  TraceProfiler profiler;
  ClusterTimeSeries telemetry;
  SpanTracer spans;
  const std::vector<JobRecord>* jobs = nullptr;  // set once the run is over
  // The job half of the telemetry digest (UtilizationResult::digest of the
  // report's Table 3 pass), set with `jobs`.
  TelemetryDigest util_digest;
  std::string title;                             // the dashboard's
  DashboardFold dashboard;                       // what the dashboard reads
};

// A recorder of an NDJSON stream (EventLog, ClusterTimeSeries or SpanLog),
// named by its address, so that outputs naming one recorder name the same.
class StreamRecorder {
 public:
  StreamRecorder() = default;
  template <typename Recorder>
  StreamRecorder(Recorder* recorder)  // NOLINT(google-explicit-constructor)
      : address_(recorder),
        stream_to_([recorder](std::ostream* out) { recorder->StreamTo(out); }) {}

  bool operator==(const StreamRecorder& other) const { return address_ == other.address_; }
  void StreamTo(std::ostream* out) const { stream_to_(out); }

 private:
  const void* address_ = nullptr;
  std::function<void(std::ostream*)> stream_to_;
};

struct RunOutput {
  std::string flag{};  // the option that asks for it; "--out" for a directory's files
  std::string path{};
  std::string sink{};  // manifest key
  std::string what{};  // names it in messages: "cannot write WHAT to PATH"
  unsigned attaches = 0;  // Recorder mask: what the run must record for it
  StreamRecorder streams{};  // may write into its file during the run
  StreamRecorder reads{};    // read back after the run, which keeps it whole
  // Before the run, once the recorders are wired: makes the output's fold
  // follow the records it reads during the run. Null for none.
  std::function<void()> follow{};
  // Writes what the run has not streamed into the file. Null for a file
  // another writer fills (the native trace), declared so its path is checked.
  std::function<void(std::ostream&)> write{};
  // The stdout line printed once the file is committed; null prints none.
  std::function<std::string(const std::string& path)> line{};
};

class RunOutputs {
 public:
  // `dir` (`--out`; empty for none) is created by Open and gets manifest.json.
  // Outputs are written in their order here.
  RunOutputs(std::string dir, std::vector<RunOutput> outputs);

  // Before the run: rejects two outputs on one file, creates `dir` and opens
  // every file. Prints why and returns false on failure, having removed the
  // files it opened and the directories it created, as far as they are empty.
  bool Open();
  // The Recorder mask of what the outputs need recorded.
  unsigned attaches() const;
  // After Open and before the run: wires each of `recorders`, every stream
  // recorder of the run, by one rule, then lets each output's fold follow. A
  // recorder keeps its whole run only when an output reads it after the run.
  // Otherwise it holds one batch, writing each full batch into the file of
  // the output that streams it, or with none encoding nothing.
  void Attach(const std::vector<StreamRecorder>& recorders);
  // The same for `simulate` and `report`, after attaching to `obs` every
  // recorder of `run` an output needs.
  void Attach(SimulateRun* run, ObservabilityConfig* obs);

  // After Open and the run: writes, commits and records in `manifest` each
  // output's path and SHA-256, printing its line, then writes the manifest.
  // Prints why and returns false at the first failure.
  bool Finish(RunManifest* manifest);

 private:
  std::string dir_;
  std::vector<RunOutput> outputs_;
  std::vector<std::unique_ptr<OutputFile>> files_;  // null: filled elsewhere
  std::unique_ptr<OutputFile> manifest_;
};

// The outputs `simulate` and `report` have a flag for, with empty paths, in
// the order they are written. Their write steps and lines read `*run`.
std::vector<RunOutput> SimulateOutputs(SimulateRun* run);

// The dashboard's option, which `fleet` shares with `simulate` and `report`.
inline constexpr char kDashboardFlag[] = "--html";

}  // namespace philly

#endif  // SRC_CORE_RUN_OUTPUTS_H_
