// Thread-safe run metrics: named counters, gauges, and histograms.
//
// A MetricsRegistry may be shared by every worker of an ExperimentPool —
// instruments are registered under a mutex and then updated lock-free, so a
// single registry aggregates across concurrently running simulations. The
// resulting numbers are order-independent (sums, counts, bucketed
// histograms), which keeps multi-threaded sweeps reportable even though the
// per-sample interleaving is not deterministic.
//
// Instrument pointers returned by the registry are stable for the registry's
// lifetime; callers resolve them once and cache them on hot paths.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace philly {

class Counter {
 public:
  void Increment(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed exponential (base-2) buckets spanning ~1e-3 to ~1e12, plus running
// count/sum/min/max. Quantiles are interpolated within the hit bucket, which
// is plenty for the ~order-of-magnitude spreads the paper reports (queue
// delays of minutes vs. days).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  // Default layout: the fixed exponential base-2 buckets described above.
  Histogram() = default;
  // Custom layout: `bounds` are strictly ascending bucket upper bounds (at
  // most kNumBuckets - 1 of them); values above the last bound land in a
  // final overflow bucket. Throws std::invalid_argument on a bad layout.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  double mean() const;
  // Interpolated quantile estimate. Returns 0 when empty; q <= 0 returns the
  // observed min and q >= 1 the observed max.
  double Quantile(double q) const;

  // Empty for the default exponential layout.
  const std::vector<double>& bucket_bounds() const { return bounds_; }

 private:
  int NumBuckets() const;
  int BucketFor(double v) const;
  double BucketUpperBound(int bucket) const;

  std::vector<double> bounds_;  // empty = default exponential layout
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  // Lookup-or-create by name. Names are dotted paths, e.g.
  // "sched.queue_delay_minutes". Pointers stay valid for the registry's
  // lifetime. A name registered as one instrument kind must not be reused as
  // another.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Stable JSON snapshot: instruments grouped by kind, sorted by name.
  void WriteJson(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace philly

#endif  // SRC_OBS_METRICS_H_
