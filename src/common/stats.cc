#include "src/common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace philly {

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ <= 0.0) {
    return;
  }
  if (count_ <= 0.0) {
    *this = other;
    return;
  }
  const double total = count_ + other.count_;
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * count_ * other.count_ / total;
  mean_ += delta * other.count_ / total;
  count_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::Variance() const { return count_ > 0.0 ? m2_ / count_ : 0.0; }

double RunningStats::Stddev() const { return std::sqrt(Variance()); }

StreamingHistogram::StreamingHistogram(double lo, double hi, size_t bins, Scale scale)
    : lo_(lo), hi_(hi), scale_(scale), counts_(bins, 0.0) {
  assert(bins > 0);
  assert(hi > lo);
  if (scale_ == Scale::kLog) {
    assert(lo > 0.0);
    log_lo_ = std::log(lo_);
    log_hi_ = std::log(hi_);
  }
}

double StreamingHistogram::BinLowerEdge(size_t i) const {
  const double frac = static_cast<double>(i) / static_cast<double>(counts_.size());
  if (scale_ == Scale::kLinear) {
    return lo_ + frac * (hi_ - lo_);
  }
  return std::exp(log_lo_ + frac * (log_hi_ - log_lo_));
}

void StreamingHistogram::Merge(const StreamingHistogram& other) {
  assert(other.counts_.size() == counts_.size());
  assert(other.lo_ == lo_ && other.hi_ == hi_ && other.scale_ == scale_);
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  stats_.Merge(other.stats_);
}

double StreamingHistogram::Quantile(double p) const {
  const double total = stats_.Count();
  if (total <= 0.0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * total;
  double cum = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    // Empty bins hold no mass and must never be the answer. The trigger is
    // strict (>) so a target landing exactly on a cumulative boundary
    // resolves to the lower edge of the next *populated* bin (within == 0)
    // instead of the shared edge of the bin before it — which, when empty
    // bins separate the two, is the lower edge of a bin holding nothing.
    if (counts_[i] <= 0.0) {
      continue;
    }
    if (cum + counts_[i] > target) {
      const double within = (target - cum) / counts_[i];
      const double lo = BinLowerEdge(i);
      const double hi = BinUpperEdge(i);
      // Clamp the interpolated value into the truly observed range so that
      // out-of-range clamping into edge bins cannot report impossible values.
      return std::clamp(lo + within * (hi - lo), stats_.Min(), stats_.Max());
    }
    cum += counts_[i];
  }
  return stats_.Max();
}

double StreamingHistogram::CdfAt(double x) const {
  const double total = stats_.Count();
  if (total <= 0.0) {
    return 0.0;
  }
  if (x < lo_) {
    return 0.0;
  }
  if (x >= hi_) {
    return 1.0;
  }
  const size_t idx = BinIndex(x);
  double cum = 0.0;
  for (size_t i = 0; i < idx; ++i) {
    cum += counts_[i];
  }
  const double lo = BinLowerEdge(idx);
  const double hi = BinUpperEdge(idx);
  const double frac = hi > lo ? (x - lo) / (hi - lo) : 1.0;
  cum += counts_[idx] * std::clamp(frac, 0.0, 1.0);
  return cum / total;
}

std::vector<StreamingHistogram::CdfPoint> StreamingHistogram::CdfSeries() const {
  std::vector<CdfPoint> out;
  const double total = stats_.Count();
  if (total <= 0.0) {
    return out;
  }
  out.reserve(counts_.size());
  double cum = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    out.push_back({BinUpperEdge(i), cum / total});
  }
  return out;
}

Summary Summarize(const StreamingHistogram& h) {
  Summary s;
  s.count = h.Count();
  s.mean = h.Mean();
  s.p50 = h.Quantile(0.50);
  s.p90 = h.Quantile(0.90);
  s.p95 = h.Quantile(0.95);
  s.p99 = h.Quantile(0.99);
  s.min = h.Min();
  s.max = h.Max();
  return s;
}

namespace {

// Shared interpolation kernel so Percentile and Percentiles cannot drift.
double InterpolateSorted(const std::vector<double>& sorted, double p) {
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double Percentile(std::span<const double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return InterpolateSorted(sorted, p);
}

std::vector<double> Percentiles(std::span<const double> samples,
                                std::span<const double> ps) {
  std::vector<double> out(ps.size(), 0.0);
  if (samples.empty()) {
    return out;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < ps.size(); ++i) {
    out[i] = InterpolateSorted(sorted, ps[i]);
  }
  return out;
}

}  // namespace philly
