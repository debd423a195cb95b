#include "src/obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace philly {
namespace {

void UpdateAtomicMin(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v < cur &&
         !target->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void UpdateAtomicMax(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v > cur &&
         !target->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Integral values as integers; others in the shortest text that reads back
// to the same double, as the NDJSON codec writes them.
void WriteJsonNumber(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << 0;
    return;
  }
  if (std::abs(v) < 1e15 && v == static_cast<double>(static_cast<int64_t>(v))) {
    out << static_cast<int64_t>(v);
    return;
  }
  char buf[32];
  out.write(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty() || bounds_.size() > kNumBuckets - 1) {
    throw std::invalid_argument(
        "Histogram: custom layout needs 1.." + std::to_string(kNumBuckets - 1) +
        " bucket bounds, got " + std::to_string(bounds_.size()));
  }
  for (size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument(
          "Histogram: bucket bounds must be strictly ascending");
    }
  }
}

int Histogram::NumBuckets() const {
  return bounds_.empty() ? kNumBuckets : static_cast<int>(bounds_.size()) + 1;
}

// Default layout covers [2^-10, 2^53): bucket i holds values with upper bound
// 2^(i - 10). Values below 2^-10 land in bucket 0, values at or above the
// last bound in bucket kNumBuckets - 1. A custom layout buckets by
// lower_bound over its ascending upper bounds, with one overflow bucket.
int Histogram::BucketFor(double v) const {
  if (!bounds_.empty()) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    return static_cast<int>(it - bounds_.begin());
  }
  if (!(v > 0.0)) {
    return 0;
  }
  const int exponent = std::ilogb(v);
  const int bucket = exponent + 11;  // value < 2^(bucket - 10)
  return std::clamp(bucket, 0, kNumBuckets - 1);
}

double Histogram::BucketUpperBound(int bucket) const {
  if (!bounds_.empty()) {
    return bucket < static_cast<int>(bounds_.size())
               ? bounds_[static_cast<size_t>(bucket)]
               : std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, bucket - 10);
}

void Histogram::Observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  UpdateAtomicMin(&min_, v);
  UpdateAtomicMax(&max_, v);
  buckets_[static_cast<size_t>(BucketFor(v))].fetch_add(
      1, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const int64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  // Extremes are exact: the running min/max are the true order statistics,
  // and interpolating inside the edge buckets would drift (e.g. with mixed
  // signs the first bucket's nominal lower edge is 0, not the negative min).
  if (q <= 0.0) {
    return min();
  }
  if (q >= 1.0) {
    return max();
  }
  const double rank = q * static_cast<double>(n);
  double seen = 0.0;
  const int num_buckets = NumBuckets();
  for (int i = 0; i < num_buckets; ++i) {
    const auto in_bucket = static_cast<double>(
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed));
    if (in_bucket == 0.0) {
      continue;
    }
    if (seen + in_bucket >= rank) {
      const double lower = i == 0 ? min() : BucketUpperBound(i - 1);
      // The overflow bucket has no finite nominal bound; max() caps it (and
      // every other bucket — observed extremes beat nominal edges).
      const double upper = std::min(BucketUpperBound(i), max());
      const double fraction = (rank - seen) / in_bucket;
      const double estimate = lower + fraction * (upper - lower);
      return std::clamp(estimate, min(), max());
    }
    seen += in_bucket;
  }
  return max();
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": " << counter->value();
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": ";
    WriteJsonNumber(out, gauge->value());
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
        << histogram->count() << ", \"sum\": ";
    WriteJsonNumber(out, histogram->sum());
    out << ", \"min\": ";
    WriteJsonNumber(out, histogram->min());
    out << ", \"max\": ";
    WriteJsonNumber(out, histogram->max());
    out << ", \"mean\": ";
    WriteJsonNumber(out, histogram->mean());
    out << ", \"p50\": ";
    WriteJsonNumber(out, histogram->Quantile(0.5));
    out << ", \"p90\": ";
    WriteJsonNumber(out, histogram->Quantile(0.9));
    out << ", \"p99\": ";
    WriteJsonNumber(out, histogram->Quantile(0.99));
    out << "}";
    first = false;
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace philly
