// Perf gate for the event queue and the placer: each production component
// timed against its test oracle on the traffic a paper-scale simulation sends
// it.
//
//   * queue:  Simulator vs ReferenceHeapQueue (tests/reference/heap_queue.h)
//             on the arrivals, attempt ends and scheduling passes of a
//             WorkloadConfig::PaperScale() trace, about 420k firings;
//   * placer: LocalityPlacer vs ScanPlacement (tests/reference/scan_placer.h)
//             on a ClusterConfig::PaperScale() churn of about 206k
//             FindPlacement/CanPlace calls, drawn with the demands, relax
//             levels and release and fault rates counted in a 75-day run.
//
// Each side folds every firing (time, tag) or every answer (the shards, or
// the CanPlace bit) into a hash. If the two sides' hashes differ, the gate
// exits 1: a speedup over an oracle the production code no longer matches
// means nothing. Each side is timed best of 3, and the speedup is the
// oracle's time over production's. The ratio, not the seconds, is what
// --check compares: both sides run on one machine in one process, so the
// runner's speed divides out.
//
// Output: a table plus BENCH_oracle_gate.json (override with --out). With
// `--check <baseline.json>` the gate exits 1 when either speedup falls more
// than 20% below the baseline's. The workload seed is PHILLY_BENCH_SEED
// (default 42). Regenerate the baseline from a Release build after an
// intentional queue or placer change:
//
//   ./build/bench/oracle_gate --out BENCH_oracle_gate.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/cluster.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/sched/placement.h"
#include "src/sched/scheduler_config.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"
#include "src/workload/job.h"
#include "tests/reference/heap_queue.h"
#include "tests/reference/scan_placer.h"

namespace philly {
namespace {

// One side's run of a workload: what it computed and how long it took.
struct Run {
  uint64_t hash = 0;
  int64_t ops = 0;  // firings or placement queries
  double seconds = 0.0;
};

uint64_t Fold(uint64_t hash, uint64_t value) { return Mix64(hash ^ value) + value; }

// ---------------------------------------------------------------- queue

// The event traffic ClusterSimulation::Run sends its queue, rebuilt from a
// paper-scale trace. Every arrival is scheduled up front, so most of 96k
// events start in the overflow heap and migrate into the ring as the clock
// reaches them. Each arrival schedules its attempt's end one job duration
// later, and each arrival and end requests a scheduling pass now. A pass that
// leaves jobs waiting requests the next one a backoff later; the next arrival
// or end cancels that pass and schedules an immediate one, as
// RequestSchedulingPass does. The two rates the trace cannot give were
// counted, with per-call counters, in `phillyctl simulate --days 75 --seed
// 42`: 20,252 of its 116,337 attempt ends closed a job's second or later
// attempt, and 33,438 of its 209,323 passes left jobs waiting. That run fired
// 422,180 events and cancelled 32,706.
constexpr double kRetryShare = 20'252.0 / 116'337.0;
constexpr double kWaitingShare = 33'438.0 / 209'323.0;

// A clean attempt's length: the planned duration, cut short for a job its
// user kills. Failed attempts end earlier still; the churn leaves them out.
SimDuration AttemptDuration(const JobSpec& job) {
  double duration = static_cast<double>(job.planned_duration);
  if (job.intrinsic == IntrinsicOutcome::kKilledByUser) {
    duration *= job.kill_fraction;
  }
  return std::max<SimDuration>(1, static_cast<SimDuration>(duration));
}

template <typename Queue>
class QueueChurn {
 public:
  QueueChurn(const std::vector<JobSpec>& jobs, uint64_t seed) : jobs_(jobs), rng_(seed) {}

  Run Go() {
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < jobs_.size(); ++i) {
      queue_.ScheduleAt(jobs_[i].submit_time, [this, i] { Arrive(i); });
    }
    queue_.Run();
    run_.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return run_;
  }

 private:
  enum Tag : uint64_t { kArrival, kEnd, kPass };

  void Fire(Tag tag, size_t job) {
    run_.hash =
        Fold(run_.hash, (static_cast<uint64_t>(queue_.Now()) << 24) ^ (job << 2) ^ tag);
    ++run_.ops;
  }
  void Arrive(size_t job) {
    Fire(kArrival, job);
    RequestPass(0);
    queue_.ScheduleAfter(AttemptDuration(jobs_[job]), [this, job] { End(job); });
  }
  void End(size_t job) {
    Fire(kEnd, job);
    RequestPass(0);
    if (rng_.Bernoulli(kRetryShare)) {
      queue_.ScheduleAfter(AttemptDuration(jobs_[job]), [this, job] { End(job); });
    }
  }
  void Pass() {
    pass_pending_ = false;
    Fire(kPass, 0);
    if (rng_.Bernoulli(kWaitingShare)) {
      RequestPass(backoff_);
    }
  }
  void RequestPass(SimDuration delay) {
    const SimTime t = queue_.Now() + delay;
    if (pass_pending_ && pass_time_ <= t) {
      return;
    }
    if (pass_pending_) {
      queue_.Cancel(pass_event_);
    }
    pass_pending_ = true;
    pass_time_ = t;
    pass_event_ = queue_.ScheduleAt(t, [this] { Pass(); });
  }

  const std::vector<JobSpec>& jobs_;
  const SimDuration backoff_ = SchedulerConfig::Philly().sched_backoff;
  Rng rng_;
  Queue queue_;
  Run run_;
  bool pass_pending_ = false;
  SimTime pass_time_ = 0;
  EventId pass_event_;
};

// ---------------------------------------------------------------- placer

// The placer calls the same 75-day run made, counted by demand and relax
// level: 183,712 FindPlacement calls, 63% of which found a placement, and
// 11,748 CanPlace calls, all at the top level (the out-of-order benign
// check). The scheduler asks again for every waiting job on each pass, so
// these are not the arrivals' demands: 64-GPU jobs are 0.4% of the trace but
// 18% of FindPlacement calls.
struct CountedCall {
  bool can_place;
  int gpus;
  int level;
  double count;
};
constexpr CountedCall kCountedCalls[] = {
    // FindPlacement, one row per demand, relax levels 0-3.
    {false, 1, 0, 57'501},
    {false, 2, 0, 9'301},
    {false, 3, 0, 1'256},
    {false, 4, 0, 16'418}, {false, 4, 1, 22},
    {false, 8, 0, 33'447}, {false, 8, 1, 2'701}, {false, 8, 2, 1'420}, {false, 8, 3, 904},
    {false, 16, 0, 7'490}, {false, 16, 1, 3'092}, {false, 16, 2, 629}, {false, 16, 3, 678},
    {false, 24, 0, 2'911}, {false, 24, 1, 1'612}, {false, 24, 2, 270}, {false, 24, 3, 756},
    {false, 32, 0, 4'258}, {false, 32, 1, 3'073}, {false, 32, 2, 958}, {false, 32, 3, 1'224},
    {false, 64, 0, 14'046}, {false, 64, 1, 12'516}, {false, 64, 2, 1'795}, {false, 64, 3, 5'434},
    // CanPlace.
    {true, 2, 3, 18}, {true, 3, 3, 16}, {true, 4, 3, 332}, {true, 8, 3, 2'452},
    {true, 16, 3, 1'386}, {true, 24, 3, 580}, {true, 32, 3, 1'340}, {true, 64, 3, 5'624},
};
// Between those calls the same run released 116,337 gangs. It has no machine
// faults; the year365-faults run (`simulate --days 365 --seed 42 --faults
// --checkpoint-mins 60 --ckpt-bw 2 --ckpt-policy stagger`) took a server
// offline 4,737 times in 1,114,027 placer calls, which scales to 831 offline
// and 831 repair steps against the 75-day run's calls.
constexpr double kReleases = 116'337;
constexpr double kOfflines = 831;

// Placer calls are 62% of the steps, so 330k steps make about 206k calls.
constexpr int kPlacerSteps = 330'000;

struct PlacerStep {
  enum Kind : uint8_t { kQuery, kRelease, kOffline, kRepair } kind = kQuery;
  CountedCall call{};
  uint64_t pick = 0;  // the gang or server acted on, modulo the count at the time
};

// Draws the steps up front, from the counted shares, so that the timed loops
// do only placer and cluster work.
std::vector<PlacerStep> DrawPlacerSteps(uint64_t seed) {
  std::vector<double> weights;
  for (const CountedCall& call : kCountedCalls) {
    weights.push_back(call.count);
  }
  const size_t release = weights.size();
  weights.insert(weights.end(), {kReleases, kOfflines, kOfflines});
  Rng rng(seed);
  std::vector<PlacerStep> steps(kPlacerSteps);
  for (PlacerStep& step : steps) {
    const size_t drawn = rng.Categorical(weights);
    if (drawn < release) {
      step.call = kCountedCalls[drawn];
    } else {
      step.kind = static_cast<PlacerStep::Kind>(PlacerStep::kRelease + (drawn - release));
    }
    step.pick = rng();
  }
  return steps;
}

uint64_t FoldPlacement(uint64_t hash, const std::optional<Placement>& placement) {
  hash = Fold(hash, placement.has_value() ? 1 : 2);
  if (placement.has_value()) {
    for (const PlacementShard& shard : placement->shards) {
      hash = Fold(hash, (static_cast<uint64_t>(shard.server) << 8) ^
                            static_cast<uint64_t>(shard.gpus));
    }
  }
  return hash;
}

// The production placer, or the scan oracle with the same PlacerConfig.
struct IndexSide {
  LocalityPlacer placer;
  std::optional<Placement> Find(const Cluster& c, int gpus, int level) const {
    return placer.FindPlacement(c, gpus, level);
  }
  bool Can(const Cluster& c, int gpus, int level) const {
    return placer.CanPlace(c, gpus, level);
  }
};
struct ScanSide {
  PlacerConfig config;
  std::optional<Placement> Find(const Cluster& c, int gpus, int level) const {
    return ScanPlacement(c, config, gpus, level);
  }
  bool Can(const Cluster& c, int gpus, int level) const {
    return ScanPlacement(c, config, gpus, level).has_value();
  }
};

// A found placement is allocated. A fault takes its server's tenants off
// first, as the simulator does; a repair brings a random offline server back.
template <typename Side>
Run PlacerChurn(const std::vector<PlacerStep>& steps) {
  const Side side;
  Cluster cluster(ClusterConfig::PaperScale());
  const auto start = std::chrono::steady_clock::now();
  Run run;
  JobId next = 1;
  std::vector<JobId> held;
  std::vector<ServerId> offline;
  const auto release = [&held, &cluster](size_t pick) {
    cluster.Release(held[pick]);
    held[pick] = held.back();
    held.pop_back();
  };
  for (const PlacerStep& step : steps) {
    switch (step.kind) {
      case PlacerStep::kQuery: {
        const CountedCall& call = step.call;
        ++run.ops;
        if (call.can_place) {
          run.hash = Fold(run.hash, side.Can(cluster, call.gpus, call.level) ? 3 : 4);
          break;
        }
        const std::optional<Placement> placement =
            side.Find(cluster, call.gpus, call.level);
        run.hash = FoldPlacement(run.hash, placement);
        if (placement.has_value()) {
          cluster.Allocate(next, *placement);
          held.push_back(next++);
        }
        break;
      }
      case PlacerStep::kRelease:
        if (!held.empty()) {
          release(step.pick % held.size());
        }
        break;
      case PlacerStep::kOffline: {
        const auto victim = static_cast<ServerId>(
            step.pick % static_cast<uint64_t>(cluster.NumServers()));
        if (!cluster.ServerOffline(victim)) {
          while (!cluster.TenantsOnServer(victim).empty()) {
            const JobId job = cluster.TenantsOnServer(victim).front().job;
            release(static_cast<size_t>(
                std::find(held.begin(), held.end(), job) - held.begin()));
          }
          cluster.SetServerOffline(victim, true);
          offline.push_back(victim);
        }
        break;
      }
      case PlacerStep::kRepair:
        if (!offline.empty()) {
          const size_t pick = step.pick % offline.size();
          cluster.SetServerOffline(offline[pick], false);
          offline[pick] = offline.back();
          offline.pop_back();
        }
        break;
    }
  }
  run.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

// ---------------------------------------------------------------- main

struct Comparison {
  const char* name;
  Run reference;
  Run production;
  bool identical() const {
    return reference.hash == production.hash && reference.ops == production.ops;
  }
  double speedup() const {
    return production.seconds > 0 ? reference.seconds / production.seconds : 0.0;
  }
};

// Best of `repeats` runs on each side, the sides interleaved so that a slow
// stretch of the machine lands on both.
template <typename Reference, typename Production>
Comparison Compare(const char* name, int repeats, Reference reference,
                   Production production) {
  Comparison c{name, {}, {}};
  for (int i = 0; i < repeats; ++i) {
    const Run r = reference();
    const Run p = production();
    if (i == 0 || r.seconds < c.reference.seconds) c.reference = r;
    if (i == 0 || p.seconds < c.production.seconds) c.production = p;
  }
  return c;
}

std::string HostDescription() {
  std::string model = "unknown CPU";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.starts_with("model name")) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  return model + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads";
}

bool CheckBaseline(const std::string& path, const Comparison& queue,
                   const Comparison& placer) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const JsonValue baseline = JsonValue::Parse(text.str(), &error);
  if (!error.empty() || baseline["queue_speedup"].is_null() ||
      baseline["placer_speedup"].is_null()) {
    std::fprintf(stderr, "cannot parse baseline %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  bool pass = true;
  for (const auto& [key, comparison] :
       {std::pair<const char*, const Comparison*>{"queue_speedup", &queue},
        {"placer_speedup", &placer}}) {
    const double floor = 0.8 * baseline[key].AsNumber();
    const double measured = comparison->speedup();
    std::printf("%s: baseline %.2fx, floor %.2fx, measured %.2fx\n", key,
                baseline[key].AsNumber(), floor, measured);
    if (measured < floor) {
      std::fprintf(stderr, "FAIL: %s regressed >20%% vs %s (%.2fx < %.2fx)\n",
                   key, path.c_str(), measured, floor);
      pass = false;
    }
  }
  return pass;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_oracle_gate.json";
  std::string baseline_path;
  std::string command = argv[0];
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out <json>] [--check <baseline.json>]\n",
                   argv[0]);
      return 2;
    }
    command += std::string(" ") + argv[i - 1] + " " + argv[i];
  }

  PrintHeader("event queue and placer vs their test oracles",
              "simulator throughput is a result (Liang et al.): the calendar "
              "queue and the placement index must stay faster than the "
              "engines they replaced, with identical answers");

  constexpr int kRepeats = 3;
  const uint64_t seed = BenchSeed();
  WorkloadConfig workload = WorkloadConfig::PaperScale();
  workload.seed = seed;
  const std::vector<JobSpec> jobs = WorkloadGenerator(workload).Generate();
  std::printf("timing the event queue on %zu jobs (seed %llu, best of %d)...\n",
              jobs.size(), static_cast<unsigned long long>(seed), kRepeats);
  const Comparison queue = Compare(
      "queue", kRepeats,
      [&jobs, seed] { return QueueChurn<ReferenceHeapQueue>(jobs, seed).Go(); },
      [&jobs, seed] { return QueueChurn<Simulator>(jobs, seed).Go(); });
  std::printf("timing the placer (best of %d)...\n", kRepeats);
  const std::vector<PlacerStep> steps = DrawPlacerSteps(seed);
  const Comparison placer =
      Compare("placer", kRepeats, [&steps] { return PlacerChurn<ScanSide>(steps); },
              [&steps] { return PlacerChurn<IndexSide>(steps); });

  TextTable table({"component", "ops", "oracle (s)", "production (s)", "speedup",
                   "identical"});
  for (const Comparison* c : {&queue, &placer}) {
    table.AddRow({c->name, std::to_string(c->production.ops),
                  std::to_string(c->reference.seconds),
                  std::to_string(c->production.seconds),
                  FormatDouble(c->speedup(), 2) + "x", c->identical() ? "yes" : "NO"});
  }
  std::printf("\n%s", table.Render().c_str());

  {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"bench\": \"oracle_gate\",\n"
                  "  \"command\": \"%s\",\n"
                  "  \"host\": \"%s\",\n"
                  "  \"seed\": %llu,\n"
                  "  \"queue_firings\": %lld,\n"
                  "  \"queue_reference_s\": %.6f,\n"
                  "  \"queue_production_s\": %.6f,\n"
                  "  \"queue_speedup\": %.4f,\n"
                  "  \"placer_queries\": %lld,\n"
                  "  \"placer_reference_s\": %.6f,\n"
                  "  \"placer_production_s\": %.6f,\n"
                  "  \"placer_speedup\": %.4f,\n"
                  "  \"identical\": %s\n"
                  "}\n",
                  JsonEscape(command).c_str(), JsonEscape(HostDescription()).c_str(),
                  static_cast<unsigned long long>(seed),
                  static_cast<long long>(queue.production.ops), queue.reference.seconds,
                  queue.production.seconds, queue.speedup(),
                  static_cast<long long>(placer.production.ops),
                  placer.reference.seconds, placer.production.seconds,
                  placer.speedup(),
                  queue.identical() && placer.identical() ? "true" : "false");
    out << buf;
  }
  std::printf("wrote %s\n", out_path.c_str());

  for (const Comparison* c : {&queue, &placer}) {
    if (!c->identical()) {
      std::fprintf(stderr, "FAIL: %s diverged from its oracle (%lld vs %lld ops)\n",
                   c->name, static_cast<long long>(c->production.ops),
                   static_cast<long long>(c->reference.ops));
      return 1;
    }
  }
  if (!baseline_path.empty()) {
    if (!CheckBaseline(baseline_path, queue, placer)) {
      return 1;
    }
    std::printf("perf smoke: PASS\n");
  }
  return 0;
}

}  // namespace
}  // namespace philly

int main(int argc, char** argv) { return philly::Main(argc, argv); }
