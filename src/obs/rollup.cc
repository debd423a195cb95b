#include "src/obs/rollup.h"

#include <algorithm>
#include <ostream>
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
// 90-100%. Used for the rollup's percentile digests — a custom Histogram
// layout, so cross-shard MergeFrom exercises the layout validation.
std::vector<double> DecileBoundsPct() {
  return {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0};
}

void WriteHistogramJson(std::ostream& out, const char* name,
                        const Histogram& h) {
  out << "    \"" << name << "\": {\"count\": " << h.count() << ", \"mean\": "
      << h.mean() << ", \"min\": " << h.min() << ", \"max\": " << h.max()
      << ", \"p50\": " << h.Quantile(0.5) << ", \"p90\": " << h.Quantile(0.9)
      << ", \"p99\": " << h.Quantile(0.99) << "}";
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
    : window_(window),
      occupancy_pct_(DecileBoundsPct()),
      util_observed_pct_(DecileBoundsPct()),
      queue_depth_() {
  if (window_ <= 0) {
    throw std::invalid_argument("TelemetryRollup: window must be positive");
  }
}

void TelemetryRollup::Add(const TelemetrySample& sample) {
  const SimTime start = (sample.time / window_) * window_;
  TelemetryWindow& w = windows_[start];
  w.start = start;
  ++w.samples;
  w.occupancy_sum += sample.occupancy;
  w.occupancy_min = std::min(w.occupancy_min, sample.occupancy);
  w.occupancy_max = std::max(w.occupancy_max, sample.occupancy);
  w.util_expected_sum += sample.util_expected_pct;
  w.util_observed_sum += sample.util_observed_pct;
  w.used_gpu_samples += sample.used_gpus;
  w.queued_max = std::max<int64_t>(w.queued_max, sample.queued_jobs);
  w.running_max = std::max<int64_t>(w.running_max, sample.running_jobs);
  occupancy_pct_.Observe(sample.occupancy * 100.0);
  util_observed_pct_.Observe(sample.util_observed_pct);
  queue_depth_.Observe(static_cast<double>(sample.queued_jobs));
}

void TelemetryRollup::AddAll(const std::vector<TelemetrySample>& samples) {
  for (const TelemetrySample& sample : samples) {
    Add(sample);
  }
}

void TelemetryRollup::MergeFrom(const TelemetryRollup& other) {
  if (window_ != other.window_) {
    throw std::invalid_argument(
        "TelemetryRollup::MergeFrom: window mismatch (" +
        std::to_string(window_) + "s vs " + std::to_string(other.window_) +
        "s)");
  }
  for (const auto& [start, w] : other.windows_) {
    TelemetryWindow& mine = windows_[start];
    mine.start = start;
    mine.samples += w.samples;
    mine.occupancy_sum += w.occupancy_sum;
    mine.occupancy_min = std::min(mine.occupancy_min, w.occupancy_min);
    mine.occupancy_max = std::max(mine.occupancy_max, w.occupancy_max);
    mine.util_expected_sum += w.util_expected_sum;
    mine.util_observed_sum += w.util_observed_sum;
    mine.used_gpu_samples += w.used_gpu_samples;
    mine.queued_max = std::max(mine.queued_max, w.queued_max);
    mine.running_max = std::max(mine.running_max, w.running_max);
  }
  occupancy_pct_.MergeFrom(other.occupancy_pct_);
  util_observed_pct_.MergeFrom(other.util_observed_pct_);
  queue_depth_.MergeFrom(other.queue_depth_);
}

void TelemetryRollup::WriteJson(std::ostream& out) const {
  out << "{\n  \"window_seconds\": " << window_ << ",\n  \"windows\": [";
  bool first = true;
  for (const auto& [start, w] : windows_) {
    out << (first ? "\n" : ",\n") << "    {\"start\": " << start
        << ", \"samples\": " << w.samples << ", \"occ_mean\": "
        << w.MeanOccupancy() << ", \"occ_min\": "
        << (w.samples == 0 ? 0.0 : w.occupancy_min) << ", \"occ_max\": "
        << (w.samples == 0 ? 0.0 : w.occupancy_max) << ", \"util_exp_mean\": "
        << w.MeanUtilExpected() << ", \"util_obs_mean\": "
        << w.MeanUtilObserved() << ", \"queued_max\": " << w.queued_max
        << ", \"running_max\": " << w.running_max << "}";
    first = false;
  }
  out << (first ? "]" : "\n  ]") << ",\n  \"digests\": {\n";
  WriteHistogramJson(out, "occupancy_pct", occupancy_pct_);
  out << ",\n";
  WriteHistogramJson(out, "util_observed_pct", util_observed_pct_);
  out << ",\n";
  WriteHistogramJson(out, "queue_depth", queue_depth_);
  out << "\n  }\n}\n";
}

}  // namespace philly
