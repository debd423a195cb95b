#include "src/fleet/fleet_outputs.h"

#include <algorithm>
#include <utility>

#include "src/core/analysis.h"

namespace philly {
namespace {

// p95 of initial queueing delay, in minutes.
double P95QueueDelayMinutes(const std::vector<JobRecord>& jobs) {
  std::vector<double> delays;
  delays.reserve(jobs.size());
  for (const JobRecord& job : jobs) {
    delays.push_back(ToMinutes(job.InitialQueueDelay()));
  }
  if (delays.empty()) {
    return 0.0;
  }
  std::sort(delays.begin(), delays.end());
  const size_t index = static_cast<size_t>(
      0.95 * static_cast<double>(delays.size() - 1) + 0.5);
  return delays[std::min(index, delays.size() - 1)];
}

}  // namespace

void FleetDashboardFold::Follow(size_t i, ClusterTimeSeries& telemetry) {
  telemetry.FoldInto([this, i](const TelemetrySample& sample) { Add(i, sample); },
                     [this, i] { End(i); });
}

void FleetDashboardFold::Add(size_t i, const TelemetrySample& sample) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (i == head_) {
    fleet_.Add(sample);
    return;
  }
  Member& member = members_[i];
  member.waiting.push_back(PointOf(sample));
  member.last = DashboardFold::CountersOf(sample);
}

void FleetDashboardFold::End(size_t i) {
  const std::lock_guard<std::mutex> lock(mu_);
  members_[i].ended = true;
  // Each member whose predecessors have all ended folds in what it kept
  // waiting; the first one still running takes over the head.
  while (head_ < members_.size() && members_[head_].ended) {
    if (++head_ < members_.size()) {
      FoldWaiting(members_[head_]);
    }
  }
}

void FleetDashboardFold::FoldWaiting(Member& member) {
  for (const TelemetryPoint& point : member.waiting) {
    fleet_.Add(point);
  }
  if (!member.waiting.empty()) {
    fleet_.last = member.last;
  }
  member.waiting = {};
}

const DashboardFold& FleetDashboardFold::Finish(const FleetResult& result) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (; head_ < members_.size(); ++head_) {
    FoldWaiting(members_[head_]);
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    fleet_.AddCounts(members_[i].counts);
    fleet_.jobs.push_back(&result.clusters[i].result.jobs);
  }
  fleet_.AddCounts(route_);
  return fleet_;
}

std::vector<RunOutput> FleetOutputs(FleetRun* run, const FleetConfig& config,
                                    const std::string& out_dir, const std::string& html) {
  std::vector<FleetClusterResult>& members = run->result.clusters;
  members.resize(config.clusters.size());
  std::vector<RunOutput> outputs;
  if (!out_dir.empty()) {
    outputs.push_back({.flag = "--out", .path = out_dir + "/fleet_events.ndjson",
                       .sink = "fleet-events", .what = "fleet route stream",
                       .streams = &run->result.route_events,
                       .write = [run](std::ostream& out) {
                         run->result.route_events.WriteNdjson(out);
                       }});
    for (size_t i = 0; i < members.size(); ++i) {
      FleetClusterResult& member = members[i];
      const std::string& name = config.clusters[i].name;
      const auto declare = [&](const std::string& stream, const char* what, unsigned attaches,
                               StreamRecorder recorder,
                               std::function<void(std::ostream&)> write) {
        outputs.push_back({.flag = "--out",
                           .path = out_dir + "/" + name + "." + stream + ".ndjson",
                           .sink = name + "-" + stream,
                           .what = what,
                           .attaches = attaches,
                           .streams = std::move(recorder),
                           .write = std::move(write)});
      };
      declare("events", "event log", kEventLog, &member.events,
              [&member](std::ostream& out) { member.events.WriteNdjson(out); });
      // Same embedded digest the simulate path writes, so each per-cluster
      // stream verifies under `analyze --telemetry` on its own.
      declare("telemetry", "telemetry", kTimeSeries, &member.telemetry,
              [&member](std::ostream& out) {
                const TelemetryDigest digest =
                    TelemetryStreamDigest(member.telemetry, member.result.jobs);
                member.telemetry.WriteNdjson(out, &digest);
              });
      if (config.collect_spans) {
        declare("spans", "span stream", kSpanTracer, &member.spans.log(),
                [&member](std::ostream& out) { member.spans.log().WriteNdjson(out); });
      }
    }
    outputs.back().line = [out_dir](const std::string&) {
      return "fleet streams written to " + out_dir + "/";
    };
  }
  if (!html.empty()) {
    run->dashboard = std::make_unique<FleetDashboardFold>(members.size());
    outputs.push_back(
        {.flag = kDashboardFlag,
         .path = html,
         .sink = "dashboard",
         .what = "dashboard",
         .attaches = kEventLog | kTimeSeries,
         .follow =
             [run] {
               FleetDashboardFold& dashboard = *run->dashboard;
               for (size_t i = 0; i < run->result.clusters.size(); ++i) {
                 FleetClusterResult& member = run->result.clusters[i];
                 dashboard.Follow(i, member.events);
                 dashboard.Follow(i, member.telemetry);
                 dashboard.Follow(i, member.spans.log());
               }
               dashboard.FollowRoute(run->result.route_events);
             },
         .write =
             [run](std::ostream& out) {
               out << RenderHtmlDashboard(run->title, run->dashboard->Finish(run->result),
                                          &run->section);
             },
         .line = [](const std::string& path) { return "fleet dashboard written to " + path; }});
  }
  return outputs;
}

void AttachFleet(RunOutputs* outputs, FleetRun* run, FleetConfig* config) {
  config->collect_events = (outputs->attaches() & kEventLog) != 0;
  config->collect_telemetry = true;
  std::vector<StreamRecorder> recorders = {&run->result.route_events};
  for (FleetClusterResult& member : run->result.clusters) {
    recorders.insert(recorders.end(), {&member.events, &member.telemetry, &member.spans.log()});
  }
  outputs->Attach(recorders);
}

void SummarizeFleet(const FleetConfig& config, const std::string& router, FleetRun* run) {
  FleetDashboardSection& section = run->section;
  section.router = router;
  section.total_jobs = run->result.total_jobs;
  section.spilled_jobs = run->result.spilled_jobs;
  section.clusters.clear();
  for (size_t i = 0; i < run->result.clusters.size(); ++i) {
    const FleetClusterResult& cluster = run->result.clusters[i];
    // The digest folds every sample's occupancy in stream order, as a sum
    // over the whole stream would.
    const TelemetryDigest digest = cluster.telemetry.SampleDigest();
    const double mean_occ =
        digest.samples == 0 ? 0.0 : digest.occupancy_sum / static_cast<double>(digest.samples);
    section.clusters.push_back({cluster.name,
                                config.clusters[i].experiment.simulation.cluster.TotalGpus(),
                                cluster.num_jobs, cluster.home_jobs, cluster.routed_in,
                                cluster.routed_away, mean_occ,
                                P95QueueDelayMinutes(cluster.result.jobs)});
  }
}

}  // namespace philly
