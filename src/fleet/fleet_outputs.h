// The outputs of `phillyctl fleet`, declared once as simulate's are
// (src/core/run_outputs.h): under `--out`, the route stream and each
// member's event, telemetry and span streams; at `--html`, the dashboard.
// Before the run RunOutputs::Attach wires every member's recorders and the
// route log by simulate's rule, so each stream goes to its file as the
// member produces it and the dashboard folds what it reads. What the fleet
// holds after its run is then its job records, the fold and one batch per
// recorder, not its streams.

#ifndef SRC_FLEET_FLEET_OUTPUTS_H_
#define SRC_FLEET_FLEET_OUTPUTS_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/html_report.h"
#include "src/core/run_outputs.h"
#include "src/fleet/fleet.h"

namespace philly {

// The dashboard's fold of a fleet: one DashboardFold, equal to folding the
// members' streams concatenated in cluster order and then the route log,
// however the pool runs the members. A member's telemetry folds straight in
// once every member before it has ended, and waits as TelemetryPoints until
// then, so with one pool thread nothing waits. Its events and spans, which
// fold in any order, go into a fold of its own on its pool thread.
class FleetDashboardFold {
 public:
  explicit FleetDashboardFold(size_t members) : members_(members) {}

  // Before the run: follows member `i`'s recorders, and the route log.
  void Follow(size_t i, ClusterTimeSeries& telemetry);
  void Follow(size_t i, EventLog& events) { members_[i].counts.Follow(events); }
  void Follow(size_t i, SpanLog& spans) { members_[i].counts.Follow(spans); }
  void FollowRoute(EventLog& route) { route_.Follow(route); }

  // Once, after the run: the fleet's fold, with the members' job records.
  const DashboardFold& Finish(const FleetResult& result);

 private:
  struct Member {
    DashboardFold counts;                 // events and spans
    std::vector<TelemetryPoint> waiting;  // samples not folded in yet
    DashboardFold::Counters last;         // of the last waiting sample
    bool ended = false;
  };
  void Add(size_t i, const TelemetrySample& sample);
  void End(size_t i);
  void FoldWaiting(Member& member);

  std::mutex mu_;
  size_t head_ = 0;  // members before it have ended and are folded in
  std::vector<Member> members_;
  DashboardFold route_;
  DashboardFold fleet_;
};

// What one `phillyctl fleet` run records and writes.
struct FleetRun {
  FleetResult result;
  // The dashboard's fold; made by FleetOutputs when there is a dashboard.
  std::unique_ptr<FleetDashboardFold> dashboard;
  FleetDashboardSection section;  // filled by SummarizeFleet
  std::string title;              // the dashboard's
};

// The outputs for the members of `config`, in the order they are written:
// under `out_dir` (empty: none) the route stream and each member's streams
// (spans with `config.collect_spans`), and the dashboard at `html` (empty:
// none). Sizes `run->result` to one member per cluster, whose recorders the
// outputs name; their write steps read `*run`.
std::vector<RunOutput> FleetOutputs(FleetRun* run, const FleetConfig& config,
                                    const std::string& out_dir, const std::string& html);

// After RunOutputs::Open and before the run: sets which recorders `config`
// attaches (the events when an output needs them, the telemetry always,
// because the fleet table reads its digest) and has `outputs` attach the
// members' recorders and the route log (RunOutputs::Attach). No output
// reads a recorder after the run, so none keeps more than one batch.
void AttachFleet(RunOutputs* outputs, FleetRun* run, FleetConfig* config);

// After the run: the dashboard's routing section, one row per member with
// its GPUs, routing counters, mean occupancy (over its telemetry digest) and
// p95 initial queueing delay, which the fleet table prints too.
void SummarizeFleet(const FleetConfig& config, const std::string& router, FleetRun* run);

}  // namespace philly

#endif  // SRC_FLEET_FLEET_OUTPUTS_H_
