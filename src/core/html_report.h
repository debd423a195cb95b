// Self-contained HTML dashboard for a simulated run — the visual layer over
// the three log streams. Renders inline SVG only: no scripts, no external
// stylesheets, no fetched assets, so the file can be archived next to the
// run's manifest and opened anywhere (including the CI artifact browser).
//
// Charts: utilization / occupancy and queue-depth time series from the
// telemetry rollup, the Fig 1 job-lifecycle funnel from the scheduler event
// stream, Fig 3 queue-delay CDFs, and Fig 8 convergence CDFs from the job
// records.

#ifndef SRC_CORE_HTML_REPORT_H_
#define SRC_CORE_HTML_REPORT_H_

#include <string>
#include <vector>

#include "src/obs/event_log.h"
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
