#include "src/obs/rollup.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/ndjson_codec.h"

namespace philly {
namespace {

// The digest line, in key order; every field is always written.
constexpr auto kDigestFields = std::tuple{
    Constant{"digest", "1"},
    Field{"samples", &TelemetryDigest::samples},
    Field{"used_gpu_samples", &TelemetryDigest::used_gpu_samples},
    Field{"queue_max", &TelemetryDigest::queue_depth_max},
    Field{"occ_sum", &TelemetryDigest::occupancy_sum},
    Field{"util_exp_sum", &TelemetryDigest::util_expected_sum},
    Field{"util_obs_sum", &TelemetryDigest::util_observed_sum},
    Field{"jobs", &TelemetryDigest::jobs},
    Field{"segments", &TelemetryDigest::segments},
    Field{"util_weight", &TelemetryDigest::util_weight},
    Field{"util_wsum", &TelemetryDigest::util_weighted_sum},
};

// Decile bucket bounds in percent; the tenth (overflow) bucket catches
// 90-100%. The layout of the rollup's percentile digest.
std::vector<double> DecileBoundsPct() {
  return {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0};
}

}  // namespace

bool SampleAggregatesEqual(const TelemetryDigest& a, const TelemetryDigest& b) {
  return a.samples == b.samples && a.used_gpu_samples == b.used_gpu_samples &&
         a.queue_depth_max == b.queue_depth_max &&
         a.occupancy_sum == b.occupancy_sum &&
         a.util_expected_sum == b.util_expected_sum &&
         a.util_observed_sum == b.util_observed_sum;
}

bool JobAggregatesEqual(const TelemetryDigest& a, const TelemetryDigest& b) {
  return a.jobs == b.jobs && a.segments == b.segments &&
         a.util_weight == b.util_weight &&
         a.util_weighted_sum == b.util_weighted_sum;
}

void FoldSample(const TelemetrySample& s, TelemetryDigest* digest) {
  ++digest->samples;
  digest->used_gpu_samples += s.used_gpus;
  digest->queue_depth_max = std::max<int64_t>(digest->queue_depth_max, s.queued_jobs);
  digest->occupancy_sum += s.occupancy;
  digest->util_expected_sum += s.util_expected_pct;
  digest->util_observed_sum += s.util_observed_pct;
}

TelemetryDigest DigestOfSamples(const std::vector<TelemetrySample>& samples) {
  TelemetryDigest digest;
  for (const TelemetrySample& s : samples) {
    FoldSample(s, &digest);
  }
  return digest;
}

std::string ToNdjsonLine(const TelemetryDigest& digest) {
  return EncodeNdjson<kDigestFields>(digest);
}

bool IsTelemetryDigestLine(std::string_view line) {
  return line.starts_with("{\"digest\":");
}

bool TelemetryDigestFromNdjsonLine(std::string_view line, TelemetryDigest* digest,
                                   std::string* error) {
  return DecodeNdjson<kDigestFields>(line, digest, error);
}

TelemetryRollup::TelemetryRollup(SimDuration window)
    : window_(window), util_observed_pct_(DecileBoundsPct()) {
  if (window_ <= 0) {
    throw std::invalid_argument("TelemetryRollup: window must be positive");
  }
}

TelemetryPoint PointOf(const TelemetrySample& s) {
  return {s.time, s.occupancy, s.util_expected_pct, s.util_observed_pct, s.queued_jobs,
          s.running_jobs};
}

void TelemetryRollup::Add(const TelemetryPoint& point) {
  const SimTime start = (point.time / window_) * window_;
  TelemetryWindow& w = windows_[start];
  w.start = start;
  ++w.samples;
  w.occupancy_sum += point.occupancy;
  w.util_expected_sum += point.util_expected_pct;
  w.util_observed_sum += point.util_observed_pct;
  w.queued_max = std::max<int64_t>(w.queued_max, point.queued_jobs);
  w.running_max = std::max<int64_t>(w.running_max, point.running_jobs);
  util_observed_pct_.Observe(point.util_observed_pct);
}

}  // namespace philly
