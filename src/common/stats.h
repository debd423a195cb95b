// Streaming statistics used throughout the analysis pipeline.
//
// The paper's figures are CDFs and percentile tables over very large sample
// populations (per-minute GPU utilization at cluster scale is ~1e8 samples at
// full trace length). We therefore never materialize raw sample vectors in the
// steady state: accumulators here are O(1) per observation and O(bins) memory.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace philly {

// Welford mean/variance plus min/max, with optional observation weights.
// Add is defined inline: it sits in the innermost loop of the telemetry
// analyses (tens of millions of per-minute observations per run).
class RunningStats {
 public:
  void Add(double x, double weight = 1.0) {
    if (weight <= 0.0) {
      return;
    }
    count_ += weight;
    const double delta = x - mean_;
    mean_ += delta * weight / count_;
    m2_ += weight * delta * (x - mean_);
    min_ = x < min_ ? x : min_;
    max_ = x > max_ ? x : max_;
  }

  // Merges another accumulator into this one.
  void Merge(const RunningStats& other);

  double Count() const { return count_; }
  double Mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Population variance of the weighted sample.
  double Variance() const;
  double Stddev() const;
  double Min() const { return count_ > 0 ? min_ : 0.0; }
  double Max() const { return count_ > 0 ? max_ : 0.0; }
  double Sum() const { return mean_ * count_; }

 private:
  double count_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Fixed-bin streaming histogram supporting linear or logarithmic bin spacing.
// Percentiles are interpolated within bins, which is exact enough for the
// CDF-shaped results the paper reports (we use >= 200 bins everywhere).
class StreamingHistogram {
 public:
  enum class Scale { kLinear, kLog };

  // For kLog, `lo` must be > 0. Values outside [lo, hi] are clamped into the
  // first/last bin (and tracked exactly by RunningStats for mean/min/max).
  StreamingHistogram(double lo, double hi, size_t bins, Scale scale = Scale::kLinear);

  // Inline for the same reason as RunningStats::Add: this is the telemetry
  // analyses' per-observation sink.
  void Add(double x, double weight = 1.0) {
    if (weight <= 0.0) {
      return;
    }
    counts_[BinIndex(x)] += weight;
    stats_.Add(x, weight);
  }
  void Merge(const StreamingHistogram& other);

  double Count() const { return stats_.Count(); }
  double Mean() const { return stats_.Mean(); }
  double Min() const { return stats_.Min(); }
  double Max() const { return stats_.Max(); }

  // Interpolated p-quantile, p in [0, 1]. Returns 0 for an empty histogram.
  double Quantile(double p) const;
  double Median() const { return Quantile(0.5); }

  // Fraction of observed mass with value <= x.
  double CdfAt(double x) const;

  // Returns (value, cumulative_fraction) pairs at bin upper edges, suitable
  // for plotting the CDF curves in the paper's figures.
  struct CdfPoint {
    double value = 0.0;
    double cumulative = 0.0;
  };
  std::vector<CdfPoint> CdfSeries() const;

  double BinLowerEdge(size_t i) const;
  double BinUpperEdge(size_t i) const { return BinLowerEdge(i + 1); }

 private:
  size_t BinIndex(double x) const {
    double frac = 0.0;
    if (scale_ == Scale::kLinear) {
      frac = (x - lo_) / (hi_ - lo_);
    } else {
      frac = x <= 0.0 ? -1.0 : (std::log(x) - log_lo_) / (log_hi_ - log_lo_);
    }
    if (frac <= 0.0) {
      return 0;
    }
    const auto idx = static_cast<size_t>(frac * static_cast<double>(counts_.size()));
    return idx < counts_.size() - 1 ? idx : counts_.size() - 1;
  }

  double lo_;
  double hi_;
  Scale scale_;
  double log_lo_ = 0.0;
  double log_hi_ = 0.0;
  std::vector<double> counts_;
  RunningStats stats_;
};

// Convenience summary of a sample population.
struct Summary {
  double count = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Summary Summarize(const StreamingHistogram& h);

// Exact percentile of an explicit sample vector (sorts a copy; use only for
// small populations such as per-job aggregates). `p` in [0, 1]; linear
// interpolation between order statistics.
double Percentile(std::span<const double> samples, double p);

// Exact percentiles of an explicit sample vector, sorting the copy ONCE and
// evaluating every requested quantile against the same order statistics.
// Element i of the result equals Percentile(samples, ps[i]) bit-for-bit; use
// this whenever more than one quantile of the same population is needed.
std::vector<double> Percentiles(std::span<const double> samples,
                                std::span<const double> ps);

}  // namespace philly

#endif  // SRC_COMMON_STATS_H_
