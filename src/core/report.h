// The report `phillyctl simulate`, `report` and `analyze --trace` print, the
// post-run pipeline that computes it, and the rendering and shape-validation
// helpers of the reproduction benches.
//
// The report is one pipeline (RunPostRun): the analyses and the trace
// writers only read the finished records, so they run as tasks on a pool,
// and the report prints in a fixed order once all have joined. Its bytes do
// not depend on the pool size.
//
// Every bench prints paper-vs-measured tables and runs a set of *shape
// checks*: qualitative/structural assertions from the per-experiment index in
// DESIGN.md (orderings, who-dominates, monotonicity, factors within bands).
// Absolute values are not expected to match — the substrate is a simulator —
// so checks encode the findings, not the digits.

#ifndef SRC_CORE_REPORT_H_
#define SRC_CORE_REPORT_H_

#include <cstdio>
#include <deque>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/core/analysis.h"

namespace philly {

class ExperimentPool;
class TraceProfiler;
struct ClusterConfig;

// The analyses the report prints, one per section, each computed from the
// finished records alone.
struct ReportAnalyses {
  StatusResult status;
  RunTimeResult runtimes;
  QueueDelayResult delays;
  DelayCauseResult causes;
  UtilizationResult util;
  FailureAnalysisResult failures;
};

// Prints Table 6 through Table 7 into `out`, then the machine-fault and
// checkpoint sections when `sim` ran them. `sim` is null for a trace read
// back, which also leaves out Table 2's out-of-order line.
void PrintReport(const ReportAnalyses& analyses, const SimulationResult* sim,
                 std::FILE* out);

// The subset of the report a scheduler event log can reproduce on its own:
// Table 6 through Table 2. Utilization, failure, and host-resource tables
// need the telemetry and framework streams, which the event stream
// deliberately does not carry.
void PrintEventReport(const SimulationResult& joined, std::FILE* out);

// Writes the figure CDF series into `dir` from the report's analyses, then
// prints a line naming it into `out`. Returns false, naming the file on
// stderr, if one cannot be written.
bool ExportFigures(const std::vector<JobRecord>& jobs, const ReportAnalyses& analyses,
                   const std::string& dir, std::FILE* out);

// What follows a simulation or a trace read. Each step only reads `jobs`
// (and `sim`).
struct PostRun {
  const std::vector<JobRecord>* jobs = nullptr;
  const SimulationResult* sim = nullptr;  // null for a trace read back
  std::string trace_dir{};  // where the trace formats below are written
  bool native = false;      // the native trace (TraceWriter)
  // The philly-traces export for this cluster; null for none.
  const ClusterConfig* philly_traces = nullptr;
  std::string figures_dir{};  // empty for no figure series
  // Gets an "analyze" slice with one slice per step inside; null for none.
  TraceProfiler* profiler = nullptr;
};

// Runs the steps of `run` as tasks on `pool`, longest first: the
// philly-traces export, Table 3, the native trace, Table 7, and Tables 6, 2
// and Figures 2-3 as one task. Once all have joined it prints into `out`, in
// this order, a line per trace format written, the report and then the
// figure series, whose files it writes last. Stops at the first trace format
// that could not be written, naming it on stderr, before the report, and
// returns false then or when a figure series cannot be written.
bool RunPostRun(const PostRun& run, const ExperimentPool& pool, std::FILE* out,
                ReportAnalyses* analyses);

// Moves `value` into storage that is never destroyed and returns it: for the
// records of a run that ends the process, which would otherwise be freed one
// allocation at a time just before the exit frees them all. They stay
// reachable, so a leak checker does not report them. Call from one thread at
// a time.
template <typename T>
T& KeepUntilExit(T value) {
  static auto* const kept = new std::deque<T>;
  return kept->emplace_back(std::move(value));
}

// "P(X <= x)" rows for a CDF at chosen probe points (minutes, percent, ...).
std::string RenderCdfProbes(const StreamingHistogram& hist,
                            std::initializer_list<double> probes,
                            const std::string& unit);

// Writes a histogram's CDF as a two-column CSV (value,cumulative) for
// plotting the paper's figures. Returns false if the file cannot be opened or
// written.
bool WriteCdfCsv(const StreamingHistogram& hist, const std::string& path);

class ShapeChecker {
 public:
  // Records a named check. `detail` should state measured vs expected.
  void Check(const std::string& name, bool ok, const std::string& detail = "");

  // measured within [expected*(1-tol), expected*(1+tol)].
  void CheckWithin(const std::string& name, double measured, double expected,
                   double rel_tol);

  // measured in [lo, hi].
  void CheckBand(const std::string& name, double measured, double lo, double hi);

  int num_checks() const { return static_cast<int>(entries_.size()); }
  int num_failures() const { return failures_; }
  bool AllPassed() const { return failures_ == 0; }

  // "[ok] name  detail" lines plus a tally.
  std::string Render() const;

 private:
  struct Entry {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Entry> entries_;
  int failures_ = 0;
};

}  // namespace philly

#endif  // SRC_CORE_REPORT_H_
