#include "src/fleet/fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/common/strings.h"
#include "src/core/runner.h"
#include "src/sched/simulation.h"
#include "src/workload/generator.h"

namespace philly {
namespace {

// Derived per-cluster seed: sibling clusters of one fleet run must draw
// independent traces, and the derivation must be stable (the differential
// test re-derives it to configure the standalone runs).
uint64_t ClusterSeed(uint64_t base_seed, int cluster_index) {
  return base_seed + 1000003ull * static_cast<uint64_t>(cluster_index);
}

}  // namespace

FleetSimulation::FleetSimulation(FleetConfig config) : config_(std::move(config)) {
  if (config_.clusters.empty()) {
    throw std::invalid_argument("fleet needs at least one cluster");
  }
  size_t vc_count = 0;
  for (size_t i = 0; i < config_.clusters.size(); ++i) {
    const FleetClusterSpec& spec = config_.clusters[i];
    if (spec.experiment.workload.vcs.empty()) {
      throw std::invalid_argument("fleet cluster " + std::to_string(i) +
                                  " has no virtual clusters");
    }
    if (spec.experiment.simulation.cluster.TotalGpus() <= 0) {
      throw std::invalid_argument("fleet cluster " + std::to_string(i) +
                                  " has no GPUs");
    }
    if (i == 0) {
      vc_count = spec.experiment.workload.vcs.size();
    } else if (config_.router.policy != RouterPolicy::kPinnedHome &&
               spec.experiment.workload.vcs.size() != vc_count) {
      // A dynamically routed job's VC id must resolve on any destination.
      throw std::invalid_argument(
          "dynamic router policies require an equal VC count on every cluster");
    }
  }
  if (config_.router.spill_threshold < 0) {
    throw std::invalid_argument("spill threshold must be >= 0");
  }
}

FleetResult FleetSimulation::Run() {
  const int n = static_cast<int>(config_.clusters.size());
  const bool pinned = config_.router.policy == RouterPolicy::kPinnedHome;
  ExperimentPool pool(config_.threads);

  // 1. Per-cluster traces, generated in parallel (each generator owns its
  // RNG; results land by index).
  std::vector<std::vector<JobSpec>> traces(static_cast<size_t>(n));
  pool.ParallelFor(n, [&](int i) {
    WorkloadGenerator generator(config_.clusters[static_cast<size_t>(i)].experiment.workload);
    traces[static_cast<size_t>(i)] = generator.Generate();
  });

  // Fleet-unique id bases for the dynamic policies (pinned keeps original
  // ids — the byte-identity ground rule).
  std::vector<JobId> id_base(static_cast<size_t>(n), 0);
  if (!pinned) {
    JobId base = 0;
    for (int i = 0; i < n; ++i) {
      id_base[static_cast<size_t>(i)] = base;
      JobId max_id = 0;
      for (const JobSpec& job : traces[static_cast<size_t>(i)]) {
        max_id = std::max(max_id, job.id);
      }
      base += max_id;
    }
  }

  // 2. Route the merged submission stream, serially and deterministically:
  // global submit-time order, ties by home-cluster index, each trace's
  // internal order preserved (traces are submit-sorted, and equal-time jobs
  // within one trace stay in generator order).
  FleetResult out;
  out.clusters.resize(static_cast<size_t>(n));
  std::vector<int> cluster_gpus;
  cluster_gpus.reserve(static_cast<size_t>(n));
  size_t total_jobs = 0;
  for (int i = 0; i < n; ++i) {
    cluster_gpus.push_back(
        config_.clusters[static_cast<size_t>(i)].experiment.simulation.cluster.TotalGpus());
    total_jobs += traces[static_cast<size_t>(i)].size();
  }
  JobRouter router(config_.router, cluster_gpus);
  out.route_events.Reserve(total_jobs);

  std::vector<std::vector<JobSpec>> routed(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Pinned routes everything home; reserving the exact trace size keeps the
    // common case allocation-flat.
    routed[static_cast<size_t>(i)].reserve(traces[static_cast<size_t>(i)].size());
  }
  std::vector<size_t> pos(static_cast<size_t>(n), 0);
  for (size_t done = 0; done < total_jobs; ++done) {
    int home = -1;
    for (int i = 0; i < n; ++i) {
      if (pos[static_cast<size_t>(i)] >= traces[static_cast<size_t>(i)].size()) {
        continue;
      }
      if (home < 0 ||
          traces[static_cast<size_t>(i)][pos[static_cast<size_t>(i)]].submit_time <
              traces[static_cast<size_t>(home)][pos[static_cast<size_t>(home)]].submit_time) {
        home = i;
      }
    }
    assert(home >= 0);
    JobSpec job = traces[static_cast<size_t>(home)][pos[static_cast<size_t>(home)]++];
    if (!pinned) {
      job.id += id_base[static_cast<size_t>(home)];
    }
    const RouteDecision d = router.Route(job, home);
    SchedEvent& ev =
        out.route_events.Append(SchedEventKind::kRoute, job.submit_time, job.id);
    ev.vc = job.vc;
    ev.user = job.user;
    ev.gpus = job.num_gpus;
    ev.cluster = d.dest;
    ev.home = d.home;
    ev.home_queue = d.home_queue;
    ev.dest_queue = d.dest_queue;
    ev.dest_free = d.dest_free;
    ev.detail = std::string(ToString(config_.router.policy));
    out.clusters[static_cast<size_t>(home)].home_jobs += 1;
    if (d.dest != home) {
      out.spilled_jobs += 1;
      out.clusters[static_cast<size_t>(d.dest)].routed_in += 1;
      out.clusters[static_cast<size_t>(home)].routed_away += 1;
      if (config_.collect_spans) {
        // Router blame: the spilled job's pre-evaluation stretch at its
        // destination is the front door's fault, not backoff. Marked here —
        // before the destination run starts — so the tracer sees it on the
        // job's first enqueue. Pinned mode spills nothing, keeping its span
        // streams byte-identical to standalone runs.
        out.clusters[static_cast<size_t>(d.dest)].spans.MarkRouterQueued(job.id);
      }
    }
    routed[static_cast<size_t>(d.dest)].push_back(std::move(job));
  }
  out.total_jobs = static_cast<int64_t>(total_jobs);
  traces.clear();

  // 3. Per-cluster simulations on the pool. Sinks live in the (pre-sized)
  // result vector, so their addresses are stable across the parallel region
  // and no two runs share a sink.
  for (int i = 0; i < n; ++i) {
    FleetClusterResult& cluster = out.clusters[static_cast<size_t>(i)];
    cluster.name = config_.clusters[static_cast<size_t>(i)].name;
    cluster.num_jobs = static_cast<int64_t>(routed[static_cast<size_t>(i)].size());
  }
  pool.ParallelFor(n, [&](int i) {
    FleetClusterResult& cluster = out.clusters[static_cast<size_t>(i)];
    SimulationConfig sim = config_.clusters[static_cast<size_t>(i)].experiment.simulation;
    sim.obs = ObservabilityConfig{};
    if (config_.collect_events) {
      sim.obs.event_log = &cluster.events;
    }
    if (config_.collect_telemetry) {
      sim.obs.timeseries = &cluster.telemetry;
    }
    if (config_.collect_spans) {
      sim.obs.spans = &cluster.spans;
    }
    cluster.result =
        ClusterSimulation(sim, std::move(routed[static_cast<size_t>(i)])).Run();
  });

  // 4. Aggregate the fleet GPU-time ledger.
  for (const FleetClusterResult& cluster : out.clusters) {
    out.allocated_gpu_seconds += cluster.result.allocated_gpu_seconds;
    out.useful_gpu_seconds += cluster.result.useful_gpu_seconds;
    out.machine_fault_lost_gpu_seconds += cluster.result.machine_fault_lost_gpu_seconds;
    out.ckpt_overhead_gpu_seconds += cluster.result.ckpt_overhead_gpu_seconds;
    out.ckpt_stall_gpu_seconds += cluster.result.ckpt_stall_gpu_seconds;
  }
  return out;
}

bool ParseClustersSpec(std::string_view text, std::vector<ClusterConfig>* clusters,
                       std::string* error) {
  constexpr int kMaxClusters = 64;
  const auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (text.empty()) {
    return fail("--clusters is empty; expected a count or RxS[xG] entries");
  }
  if (text.find_first_of(",x") == std::string_view::npos) {
    int64_t count = 0;
    if (!ParseNumber(text, &count)) {
      return fail("--clusters value '" + std::string(text) +
                  "' is not a cluster count or RxS[xG] list");
    }
    if (count < 1 || count > kMaxClusters) {
      return fail("--clusters count must be in [1, " +
                  std::to_string(kMaxClusters) + "], got '" + std::string(text) + "'");
    }
    clusters->assign(static_cast<size_t>(count), ClusterConfig::PaperScale());
    return true;
  }
  const std::vector<std::string_view> entries = Split(text, ',');
  if (entries.size() > kMaxClusters) {
    return fail("--clusters lists more than " + std::to_string(kMaxClusters) + " clusters");
  }
  std::vector<ClusterConfig> parsed;
  for (const std::string_view entry : entries) {
    // Entry grammar: RxS or RxSxG, all strictly positive integers.
    const std::vector<std::string_view> fields = Split(entry, 'x');
    int64_t dims[3] = {0, 0, 8};
    bool ok = fields.size() == 2 || fields.size() == 3;
    for (size_t i = 0; ok && i < fields.size(); ++i) {
      ok = ParseNumber(fields[i], &dims[i]);
    }
    if (!ok) {
      return fail("--clusters entry '" + std::string(entry) +
                  "' is not RxS or RxSxG (positive integers)");
    }
    if (dims[0] < 1 || dims[0] > 1024 || dims[1] < 1 || dims[1] > 1024 ||
        dims[2] < 1 || dims[2] > 16) {
      return fail("--clusters entry '" + std::string(entry) +
                  "' out of range (racks/servers in [1, 1024], GPUs in [1, 16])");
    }
    ClusterConfig cluster;
    cluster.skus.push_back({static_cast<int>(dims[0]), static_cast<int>(dims[1]),
                            static_cast<int>(dims[2])});
    parsed.push_back(std::move(cluster));
  }
  *clusters = std::move(parsed);
  return true;
}

ExperimentConfig FleetClusterExperiment(const ClusterConfig& cluster, int days,
                                        uint64_t base_seed, int cluster_index) {
  ExperimentConfig config =
      ExperimentConfig::BenchScale(days, ClusterSeed(base_seed, cluster_index));
  config.simulation.cluster = cluster;
  // Scale demand to the member's capacity: paper-rate arrivals against a
  // quarter-size cluster would just measure a permanent backlog.
  const double scale = static_cast<double>(cluster.TotalGpus()) /
                       static_cast<double>(ClusterConfig::PaperScale().TotalGpus());
  for (VcConfig& vc : config.workload.vcs) {
    vc.quota_gpus = std::max<int>(1, static_cast<int>(std::llround(vc.quota_gpus * scale)));
    vc.arrival_rate_per_hour *= scale;
  }
  config.workload.prepopulate_busy_gpus = static_cast<int>(
      std::llround(config.workload.prepopulate_busy_gpus * scale));
  config.simulation.vcs = config.workload.vcs;
  return config;
}

}  // namespace philly
