// Rollups and integrity digests for the telemetry stream (timeseries.h).
//
// TelemetryDigest (declared in timeseries.h) is the stream's self-check
// record: order-sensitive exact aggregates over the sample lines
// (recomputable by any reader, in file order, with bitwise-equal results)
// plus the Table 3 utilization aggregates the writer derived from the native
// job records. `phillyctl analyze --telemetry` recomputes both sides and
// exits non-zero on any mismatch — the same reconstruct-and-cross-check
// discipline event_join.h applies to the scheduler stream.
//
// TelemetryRollup downsamples a stream into fixed windows (default one hour)
// for the HTML dashboard, with a Histogram-backed percentile digest of the
// observed utilization.

#ifndef SRC_OBS_ROLLUP_H_
#define SRC_OBS_ROLLUP_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/sim_time.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"

namespace philly {

// Exact-equality views for the two digest halves.
bool SampleAggregatesEqual(const TelemetryDigest& a, const TelemetryDigest& b);
bool JobAggregatesEqual(const TelemetryDigest& a, const TelemetryDigest& b);

// Folds one sample into the sample-derived half. Folding a stream's samples
// in file order is the definition of that half, which is what lets a
// streaming ClusterTimeSeries digest samples it no longer holds.
void FoldSample(const TelemetrySample& sample, TelemetryDigest* digest);

// Recomputes the sample-derived half from a stream, in file order.
TelemetryDigest DigestOfSamples(const std::vector<TelemetrySample>& samples);

// Digest NDJSON line ({"digest":1,...}); appended after the sample lines.
std::string ToNdjsonLine(const TelemetryDigest& digest);
bool IsTelemetryDigestLine(std::string_view line);
bool TelemetryDigestFromNdjsonLine(std::string_view line, TelemetryDigest* digest,
                                   std::string* error);

// One downsampling window of a rollup.
struct TelemetryWindow {
  SimTime start = 0;
  int64_t samples = 0;
  double occupancy_sum = 0.0;
  double util_expected_sum = 0.0;
  double util_observed_sum = 0.0;
  int64_t queued_max = 0;
  int64_t running_max = 0;

  double MeanOccupancy() const {
    return samples == 0 ? 0.0 : occupancy_sum / static_cast<double>(samples);
  }
  double MeanUtilExpected() const {
    return samples == 0 ? 0.0 : util_expected_sum / static_cast<double>(samples);
  }
  double MeanUtilObserved() const {
    return samples == 0 ? 0.0 : util_observed_sum / static_cast<double>(samples);
  }
};

class TelemetryRollup {
 public:
  explicit TelemetryRollup(SimDuration window = Hours(1));

  void Add(const TelemetrySample& sample);
  void AddAll(const std::vector<TelemetrySample>& samples);

  // Windows keyed (and iterated) by start time.
  const std::map<SimTime, TelemetryWindow>& windows() const { return windows_; }

  // Whole-stream percentile digest (a custom decile bucket layout).
  const Histogram& util_observed_pct() const { return util_observed_pct_; }

 private:
  SimDuration window_;
  std::map<SimTime, TelemetryWindow> windows_;
  Histogram util_observed_pct_;
};

}  // namespace philly

#endif  // SRC_OBS_ROLLUP_H_
