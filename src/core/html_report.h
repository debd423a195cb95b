// Self-contained HTML dashboard for a simulated run — the visual layer over
// the three log streams. Renders inline SVG only: no scripts, no external
// stylesheets, no fetched assets, so the file can be archived next to the
// run's manifest and opened anywhere (including the CI artifact browser).
//
// Charts: utilization / occupancy and queue-depth time series from the
// telemetry rollup, the Fig 1 job-lifecycle funnel from the scheduler event
// stream, Fig 3 queue-delay CDFs, and Fig 8 convergence CDFs from the job
// records.
//
// The page renders from a DashboardFold, which follows a run's recorders and
// keeps only what the page reads, so no stream is held for it. A fleet's
// members fold into one, in cluster order (src/fleet/fleet_outputs.h).

#ifndef SRC_CORE_HTML_REPORT_H_
#define SRC_CORE_HTML_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/sched/records.h"

namespace philly {

// Fleet summary (docs/fleet.md): one row per member cluster plus the router's
// fleet-wide counters. Rendered as its own section when attached below.
struct FleetDashboardSection {
  struct Cluster {
    std::string name;
    int total_gpus = 0;
    int64_t jobs = 0;  // jobs that ran here
    int64_t home_jobs = 0;
    int64_t routed_in = 0;
    int64_t routed_away = 0;
    double mean_occupancy = 0.0;  // fraction
    double p95_queue_minutes = 0.0;
  };
  std::string router;  // policy name
  int64_t total_jobs = 0;
  int64_t spilled_jobs = 0;
  std::vector<Cluster> clusters;
};

// Downsampling window of the dashboard's time-series charts.
inline constexpr SimDuration kRollupWindow = Hours(1);

// What the dashboard reads of a run, folded from its records as each becomes
// final (src/obs/record_buffer.h). Telemetry must come in stream order: the
// rollup's window sums are a left fold. A fold must not move once it follows
// a recorder.
struct DashboardFold {
  TelemetryRollup rollup{kRollupWindow};
  int64_t samples = 0;
  double peak_occupancy = 0.0;
  int64_t peak_queue = 0;
  // The last sample's cumulative counters.
  struct Counters {
    int64_t locality_relaxations = 0;
    int64_t backoffs = 0;
    int64_t preemptions = 0;
    int64_t fault_kills = 0;
  };
  Counters last;
  // Scheduler events by kind, once an event stream is followed.
  bool has_events = false;
  std::array<int64_t, kNumSchedEventKinds> event_counts = {};
  // Spans seen, and per VC the attributed seconds of each blame code from
  // the kBlame and kCkpt spans.
  int64_t spans = 0;
  std::vector<std::array<int64_t, kNumBlameCodes>> vc_blame;
  // The runs' job records, in order; set once the runs are over.
  std::vector<const std::vector<JobRecord>*> jobs;

  // A sample is its point and its counters.
  static Counters CountersOf(const TelemetrySample& sample);
  void Add(const TelemetryPoint& point);
  void Add(const TelemetrySample& sample);
  void Add(const SchedEvent& event);
  void Add(const SpanRecord& span);
  // Adds `other`'s events and spans, which fold in any order.
  void AddCounts(const DashboardFold& other);

  // Folds every record of the recorder from now on (FoldInto).
  void Follow(ClusterTimeSeries& telemetry);
  void Follow(EventLog& events);
  void Follow(SpanLog& spans);
};

// The page of `run`; `fleet` adds the routing section.
std::string RenderHtmlDashboard(const std::string& title, const DashboardFold& run,
                                const FleetDashboardSection* fleet = nullptr);

// Whole streams of one run, for callers that hold them. RenderHtmlDashboard
// folds them and renders the page the folds give.
struct HtmlDashboardInput {
  std::string title = "philly run";
  // Required: the per-minute telemetry stream.
  const std::vector<TelemetrySample>* samples = nullptr;
  // Optional: scheduler events (Fig 1 funnel) and job records (Fig 3/8 CDFs).
  const std::vector<SchedEvent>* events = nullptr;
  const std::vector<JobRecord>* jobs = nullptr;
  // Optional: causal span stream ("Why jobs waited" blame breakdown).
  const std::vector<SpanRecord>* spans = nullptr;
  // Optional: fleet routing section (phillyctl fleet --html).
  const FleetDashboardSection* fleet = nullptr;
};

std::string RenderHtmlDashboard(const HtmlDashboardInput& input);

}  // namespace philly

#endif  // SRC_CORE_HTML_REPORT_H_
