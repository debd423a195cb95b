// Checkpoint I/O interference model (robustness milestone, PR 7).
//
// PR 2's fault layer priced checkpoints at zero: a machine-fault kill rolled a
// job back to the last multiple of its checkpoint period, but writing the
// checkpoint itself was free and instantaneous. Real clusters pay twice: the
// gang stalls while its state drains to storage, and concurrent writers in the
// same rack contend for the shared storage uplink, stretching every in-flight
// write. This header models that contention as per-rack processor sharing —
// the n writers of a rack each receive bandwidth/n, recomputed whenever the
// writer set changes — plus the Daly first-order optimum used by the
// kDalyOptimal checkpoint policy.
//
// The model is a pure state machine: it owns no simulator events. The
// simulation drives it (BeginWrite/AbortWrite/CollectCompleted) and schedules
// one completion event per rack from NextCompletion. Completion times are
// rounded up to the integral-second event grid, so a write can occupy its
// writer slot up to one second past its exact fluid-model finish; within that
// ceiling the drained volume is exact in doubles.
//
// Determinism contract: state evolves only through the calls above, in event
// order, with no randomness — two runs of the same config replay the same
// write timeline byte-for-byte, and a disabled model (bandwidth or size 0)
// leaves every output stream byte-identical to pre-PR builds.

#ifndef SRC_FAULT_CHECKPOINT_IO_H_
#define SRC_FAULT_CHECKPOINT_IO_H_

#include <optional>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/sim_time.h"

namespace philly {

struct CheckpointIoConfig {
  // Shared checkpoint-storage bandwidth per rack in GB/s. 0 (the default)
  // disables the I/O model entirely: writes cost nothing and recovery keeps
  // the PR 2 floor-of-period semantics.
  double rack_bandwidth_gbps = 0.0;

  // Checkpoint image size per GPU in GB (model replica + optimizer shard).
  // The gang's write is size_gb_per_gpu x its GPU count.
  double size_gb_per_gpu = 2.0;

  bool Enabled() const {
    return rack_bandwidth_gbps > 0.0 && size_gb_per_gpu > 0.0;
  }
};

// kCooperativeStagger admission limit: concurrent writers allowed per rack.
// Requests beyond the limit defer (training continues) until a slot frees.
inline constexpr int kMaxWritersPerRack = 2;

// kCooperativeStagger phase-shift granularity: a rack's gangs take first-write
// phases of slot/kStaggerSlots of their period, round-robin.
inline constexpr int kStaggerSlots = 8;

// Clamps for the kDalyOptimal per-gang period.
inline constexpr SimDuration kDalyMinPeriod = Minutes(5);
inline constexpr SimDuration kDalyMaxPeriod = Hours(48);

// Daly's first-order optimal checkpoint interval: tau = sqrt(2 * delta * M)
// for write cost delta and gang MTBF M (J. T. Daly, "A higher order estimate
// of the optimum checkpoint interval for restart dumps", FGCS 2006). Returns
// the integral-second period clamped to [kDalyMinPeriod, kDalyMaxPeriod], or
// 0 when either input is non-positive or non-finite (no faults expected =>
// checkpointing is pure overhead).
SimDuration DalyOptimalPeriod(double write_cost_seconds, double mtbf_seconds);

// Per-rack fair-share storage model. Writers are keyed by job id; at most one
// write per job can be in flight (the gang stalls while it drains).
class CheckpointIoModel {
 public:
  CheckpointIoModel(double bandwidth_gbps, int num_racks);

  // Starts draining `size_gb` for `job` on `rack`'s storage at time `now`.
  void BeginWrite(RackId rack, JobId job, double size_gb, SimTime now);

  // Drops `job`'s in-flight write (fault or suspension mid-write); the
  // remaining writers immediately share the reclaimed bandwidth.
  void AbortWrite(RackId rack, JobId job, SimTime now);

  // In-flight writes on `rack` right now.
  int Writers(RackId rack) const;

  // Earliest time any write on `rack` fully drains (integral seconds, rounded
  // up), or nullopt when the rack is idle. Valid until the writer set changes.
  std::optional<SimTime> NextCompletion(RackId rack, SimTime now);

  // Removes and returns every writer fully drained as of `now`, in write
  // start order.
  std::vector<JobId> CollectCompleted(RackId rack, SimTime now);

 private:
  struct Writer {
    JobId job = kNoJob;
    double remaining_gb = 0.0;
  };
  struct RackState {
    std::vector<Writer> writers;  // in write start order
    SimTime last_update = 0;
  };

  // Drains elapsed x bandwidth / n from every writer since last_update.
  void Advance(RackState& rack, SimTime now);

  double bandwidth_;
  std::vector<RackState> racks_;
};

}  // namespace philly

#endif  // SRC_FAULT_CHECKPOINT_IO_H_
