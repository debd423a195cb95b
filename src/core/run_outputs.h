// The outputs of one run, each declared once: the option that asks for it,
// its file, its manifest key, the recorders it needs and how it is written.
// `phillyctl simulate`, `report` and `fleet` each build one list. Before the
// run, Open checks and opens every file (as `<path>.partial` until committed,
// src/obs/output_file.h) and Attach wires the recorders; after it, Finish
// writes and digests every file, then the manifest.

#ifndef SRC_CORE_RUN_OUTPUTS_H_
#define SRC_CORE_RUN_OUTPUTS_H_

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

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
  unsigned attached = 0;                         // Recorder mask
  const std::vector<JobRecord>* jobs = nullptr;  // set once the run is over
  // The job half of the telemetry digest (UtilizationResult::digest of the
  // report's Table 3 pass), set with `jobs`.
  TelemetryDigest util_digest;
  std::string title;                             // the dashboard's
};

struct RunOutput {
  std::string flag{};  // the option that asks for it; "--out" for a directory's files
  std::string path{};
  std::string sink{};  // manifest key
  std::string what{};  // names it in messages: "cannot write WHAT to PATH"
  unsigned attaches = 0;  // Recorder mask: what the run must record for it
  unsigned reads = 0;     // what it reads back after the run
  unsigned streams = 0;   // the recorder that may write into its file during the run
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
  // After Open: attaches to `obs` every recorder an output needs. A recorder
  // streams into its output's file, holding one batch instead of the whole
  // run, exactly when no output reads it after the run.
  void Attach(SimulateRun* run, ObservabilityConfig* obs);
  unsigned streamed() const { return streamed_; }  // Recorder mask

  // After Open and the run: writes, commits and records in `manifest` each
  // output's path and SHA-256, printing its line, then writes the manifest.
  // Prints why and returns false at the first failure.
  bool Finish(RunManifest* manifest);

 private:
  std::string dir_;
  std::vector<RunOutput> outputs_;
  std::vector<std::unique_ptr<OutputFile>> files_;  // null: filled elsewhere
  std::unique_ptr<OutputFile> manifest_;
  unsigned streamed_ = 0;
};

// The outputs `simulate` and `report` have a flag for, with empty paths, in
// the order they are written. Their write steps and lines read `*run`.
std::vector<RunOutput> SimulateOutputs(const SimulateRun* run);

// The dashboard's option, which `fleet` shares with `simulate` and `report`.
inline constexpr char kDashboardFlag[] = "--html";

}  // namespace philly

#endif  // SRC_CORE_RUN_OUTPUTS_H_
