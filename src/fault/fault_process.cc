#include "src/fault/fault_process.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/common/hash.h"

namespace philly {
namespace {

// Lognormal repair times, fitted from (median, p90) in hours. Server
// repairs (reimage, GPU swap) take longer than switch restarts.
constexpr double kServerRepairMedianHours = 4.0;
constexpr double kServerRepairP90Hours = 12.0;
constexpr double kRackRepairMedianHours = 1.0;
constexpr double kRackRepairP90Hours = 4.0;

SimDuration HoursToSeconds(double hours) {
  return std::max<SimDuration>(1, static_cast<SimDuration>(hours * 3600.0));
}

// Degenerate configs used to be silently clamped, which turned typos like a
// negative MTBF into a surprise renewal stream instead of an error. Reject
// them at construction with the offending field named (0 MTBF stays the
// documented "class disabled" value).
void ValidateConfig(const FaultProcessConfig& config) {
  const auto require = [](bool ok, const char* field, double value) {
    if (!ok) {
      throw std::invalid_argument(
          std::string("FaultProcessConfig: ") + field + " = " +
          std::to_string(value) + " is invalid (must be finite and >= 0)");
    }
  };
  const auto mtbf_ok = [](double v) { return std::isfinite(v) && v >= 0.0; };
  require(mtbf_ok(config.server_crash_mtbf_hours), "server_crash_mtbf_hours",
          config.server_crash_mtbf_hours);
  require(mtbf_ok(config.gpu_ecc_mtbf_hours), "gpu_ecc_mtbf_hours",
          config.gpu_ecc_mtbf_hours);
  require(mtbf_ok(config.rack_outage_mtbf_hours), "rack_outage_mtbf_hours",
          config.rack_outage_mtbf_hours);
  require(config.detection_delay >= 0, "detection_delay",
          static_cast<double>(config.detection_delay));
}

}  // namespace

std::string_view ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash:
      return "server-crash";
    case FaultKind::kGpuEccDegraded:
      return "gpu-ecc-degraded";
    case FaultKind::kSwitchOutage:
      return "switch-outage";
  }
  return "?";
}

FaultProcessConfig FaultProcessConfig::Calibrated() {
  FaultProcessConfig c;
  c.server_crash_mtbf_hours = 24.0 * 90.0;   // one crash per server-quarter
  c.gpu_ecc_mtbf_hours = 24.0 * 120.0;       // ECC drains slightly rarer
  c.rack_outage_mtbf_hours = 24.0 * 75.0;    // per rack
  c.detection_delay = Minutes(10);
  return c;
}

FaultProcess::FaultProcess(const FaultProcessConfig& config, int num_servers,
                           int num_racks)
    : config_((ValidateConfig(config), config)),
      server_repair_fit_(
          LognormalSpec::FromMedianP90(kServerRepairMedianHours, kServerRepairP90Hours)),
      rack_repair_fit_(
          LognormalSpec::FromMedianP90(kRackRepairMedianHours, kRackRepairP90Hours)) {
  assert(num_servers >= 0 && num_racks >= 0);
  server_rng_.reserve(static_cast<size_t>(num_servers));
  for (int s = 0; s < num_servers; ++s) {
    server_rng_.emplace_back(
        Mix64(config_.seed ^ (0x5E1FAB1Eull + static_cast<uint64_t>(s) *
                                                  0x9E3779B97F4A7C15ull)));
  }
  rack_rng_.reserve(static_cast<size_t>(num_racks));
  for (int r = 0; r < num_racks; ++r) {
    rack_rng_.emplace_back(
        Mix64(config_.seed ^ (0x2ACCF417ull + static_cast<uint64_t>(r) *
                                                  0xD1B54A32D192ED03ull)));
  }
}

std::optional<FaultEvent> FaultProcess::NextServerFault(ServerId server,
                                                        SimTime after) {
  const double crash_rate = config_.server_crash_mtbf_hours > 0.0
                                ? 1.0 / config_.server_crash_mtbf_hours
                                : 0.0;
  const double ecc_rate =
      config_.gpu_ecc_mtbf_hours > 0.0 ? 1.0 / config_.gpu_ecc_mtbf_hours : 0.0;
  const double total_rate = crash_rate + ecc_rate;
  if (total_rate <= 0.0) {
    return std::nullopt;
  }
  assert(server >= 0 && static_cast<size_t>(server) < server_rng_.size());
  Rng& rng = server_rng_[static_cast<size_t>(server)];
  // Superposition of the two Poisson processes: one exponential gap at the
  // combined rate, then attribute the event proportionally. Both draws happen
  // even when one class is disabled, so enabling a class never shifts the
  // other's timeline.
  const double gap_hours = rng.Exponential(1.0 / total_rate);
  FaultEvent event;
  event.server = server;
  event.at = after + HoursToSeconds(gap_hours);
  event.kind = rng.Bernoulli(total_rate > 0.0 ? crash_rate / total_rate : 0.0)
                   ? FaultKind::kServerCrash
                   : FaultKind::kGpuEccDegraded;
  event.repair = HoursToSeconds(server_repair_fit_.Sample(rng));
  return event;
}

std::optional<FaultEvent> FaultProcess::NextRackFault(RackId rack, SimTime after) {
  if (config_.rack_outage_mtbf_hours <= 0.0) {
    return std::nullopt;
  }
  assert(rack >= 0 && static_cast<size_t>(rack) < rack_rng_.size());
  Rng& rng = rack_rng_[static_cast<size_t>(rack)];
  const double gap_hours = rng.Exponential(config_.rack_outage_mtbf_hours);
  FaultEvent event;
  event.kind = FaultKind::kSwitchOutage;
  event.rack = rack;
  event.at = after + HoursToSeconds(gap_hours);
  event.repair = HoursToSeconds(rack_repair_fit_.Sample(rng));
  return event;
}

}  // namespace philly
