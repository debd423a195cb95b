// Machine-level fault processes (tentpole of the robustness milestone).
//
// The per-job failure injector in src/failure models §4.2's taxonomy as
// exogenous *job* plans; what it cannot express are correlated machine-level
// incidents — a server crashing under every tenant at once, a GPU degrading
// until the node is drained, a top-of-rack switch outage killing every gang
// in its RDMA domain. FaultProcess samples those events: server-scoped
// crashes and ECC degradations, and rack-scoped switch outages, each from a
// configurable MTBF (exponential inter-fault gaps) with lognormal repair
// times.
//
// Determinism contract: each server and each rack owns an independent RNG
// stream seeded by (seed, id), so the fault timeline of server s is a pure
// function of (seed, s) — unchanged by scheduler behaviour, by other servers'
// faults, or by how often the scheduler queries other streams. This mirrors
// the FailureInjector's per-(seed, job id) plans and keeps runs byte-for-byte
// reproducible under policy changes.
//
// The scheduler-facing half (heartbeat detection delay, draining,
// blacklisting, repair return, the per-server fault flag) lives in
// ClusterSimulation; this class only emits the exogenous event timeline.

#ifndef SRC_FAULT_FAULT_PROCESS_H_
#define SRC_FAULT_FAULT_PROCESS_H_

#include <optional>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"

namespace philly {

enum class FaultKind {
  kServerCrash,     // node reboot / kernel panic / heartbeat loss
  kGpuEccDegraded,  // GPU ECC page-retirement pressure: node drained for swap
  kSwitchOutage,    // top-of-rack switch / IB fabric outage (rack-scoped)
};

std::string_view ToString(FaultKind kind);

// One machine fault. Server-scoped events carry server >= 0 and rack == -1;
// rack-scoped events the reverse. `at` is when the fault physically occurs;
// the scheduler only notices it a detection delay later. `repair` counts from
// detection (the repair ticket opens when the health tracker flags the node).
struct FaultEvent {
  FaultKind kind = FaultKind::kServerCrash;
  ServerId server = -1;
  RackId rack = -1;
  SimTime at = 0;
  SimDuration repair = 0;
};

struct FaultProcessConfig {
  uint64_t seed = 0xFA177ull;

  // Mean time between faults, per server (crash, ECC) or per rack (outage),
  // in hours. A value of 0 disables that fault class; all zero (the default)
  // disables sampling entirely, reproducing pre-fault behaviour exactly.
  double server_crash_mtbf_hours = 0.0;
  double gpu_ecc_mtbf_hours = 0.0;
  double rack_outage_mtbf_hours = 0.0;

  // Heartbeat timeout: the scheduler learns of a fault only this long after
  // it occurs. Attempts on the faulted machine keep "running" (and burning
  // GPU time) until detection.
  SimDuration detection_delay = Minutes(10);

  // Scripted events injected in addition to the sampled processes. Unit
  // tests and what-if replays use these for exact timelines.
  std::vector<FaultEvent> scripted;

  bool Enabled() const {
    return server_crash_mtbf_hours > 0.0 || gpu_ecc_mtbf_hours > 0.0 ||
           rack_outage_mtbf_hours > 0.0 || !scripted.empty();
  }

  // Modest production-like rates for benches and ablations: a server fails
  // every few months, racks lose their switch about once a quarter.
  static FaultProcessConfig Calibrated();
};

class FaultProcess {
 public:
  // Throws std::invalid_argument for degenerate configs: negative or
  // non-finite MTBFs, or a negative detection delay. A 0 MTBF remains the
  // documented "class disabled" value.
  FaultProcess(const FaultProcessConfig& config, int num_servers, int num_racks);

  bool enabled() const { return config_.Enabled(); }
  const FaultProcessConfig& config() const { return config_; }

  // Next sampled fault on `server` strictly after `after`, or nullopt when
  // both server-scoped classes are disabled. Consecutive calls walk the
  // server's private timeline; `after` anchors the gap (call with the repair
  // completion time to continue after an outage).
  std::optional<FaultEvent> NextServerFault(ServerId server, SimTime after);

  // Rack-scoped analogue for switch outages.
  std::optional<FaultEvent> NextRackFault(RackId rack, SimTime after);

 private:
  FaultProcessConfig config_;
  LognormalSpec server_repair_fit_;
  LognormalSpec rack_repair_fit_;
  // One independent stream per server / per rack (see file comment).
  std::vector<Rng> server_rng_;
  std::vector<Rng> rack_rng_;
};

}  // namespace philly

#endif  // SRC_FAULT_FAULT_PROCESS_H_
