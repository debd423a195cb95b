#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"

namespace philly {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0.0);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
}

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.Count(), 8.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.Stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(RunningStatsTest, WeightsActLikeRepeats) {
  RunningStats weighted;
  weighted.Add(3.0, 2.0);
  weighted.Add(6.0, 1.0);
  RunningStats repeated;
  repeated.Add(3.0);
  repeated.Add(3.0);
  repeated.Add(6.0);
  EXPECT_NEAR(weighted.Mean(), repeated.Mean(), 1e-12);
  EXPECT_NEAR(weighted.Variance(), repeated.Variance(), 1e-12);
}

TEST(RunningStatsTest, NonPositiveWeightIgnored) {
  RunningStats s;
  s.Add(10.0, 0.0);
  s.Add(10.0, -1.0);
  EXPECT_EQ(s.Count(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  Rng rng(5);
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.Min(), all.Min());
  EXPECT_DOUBLE_EQ(a.Max(), all.Max());
}

TEST(StreamingHistogramTest, QuantilesOfUniformGrid) {
  StreamingHistogram h(0.0, 100.0, 1000);
  for (int i = 0; i < 10000; ++i) {
    h.Add(i % 100 + 0.5);
  }
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.9), 90.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.1), 10.0, 1.0);
}

TEST(StreamingHistogramTest, MeanIsExactRegardlessOfBinning) {
  StreamingHistogram h(0.0, 10.0, 4);  // coarse bins
  h.Add(1.0);
  h.Add(2.0);
  h.Add(9.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 9.0);
}

TEST(StreamingHistogramTest, OutOfRangeClampsIntoEdgeBins) {
  StreamingHistogram h(0.0, 10.0, 10);
  h.Add(-100.0);
  h.Add(100.0);
  EXPECT_DOUBLE_EQ(h.Count(), 2.0);
  EXPECT_DOUBLE_EQ(h.CdfAt(10.0), 1.0);
}

TEST(StreamingHistogramTest, LogScaleQuantiles) {
  StreamingHistogram h(0.1, 10000.0, 500, StreamingHistogram::Scale::kLog);
  Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    h.Add(rng.Lognormal(std::log(30.0), 1.0));
  }
  EXPECT_NEAR(h.Quantile(0.5), 30.0, 3.0);
  // p90 of lognormal(ln30, 1) = 30 * exp(1.2816) = 108.1
  EXPECT_NEAR(h.Quantile(0.9), 108.0, 12.0);
}

TEST(StreamingHistogramTest, CdfAtIsMonotone) {
  StreamingHistogram h(0.0, 100.0, 50);
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    h.Add(rng.Uniform(0, 100));
  }
  double prev = -1.0;
  for (double x = 0.0; x <= 100.0; x += 2.5) {
    const double c = h.CdfAt(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(h.CdfAt(100.0), 1.0);
}

TEST(StreamingHistogramTest, CdfSeriesEndsAtOne) {
  StreamingHistogram h(0.0, 10.0, 20);
  h.Add(3.0);
  h.Add(7.0);
  const auto series = h.CdfSeries();
  ASSERT_EQ(series.size(), 20u);
  EXPECT_DOUBLE_EQ(series.back().cumulative, 1.0);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].cumulative, series[i - 1].cumulative);
    EXPECT_GT(series[i].value, series[i - 1].value);
  }
}

TEST(StreamingHistogramTest, MergeAddsMass) {
  StreamingHistogram a(0.0, 10.0, 10);
  StreamingHistogram b(0.0, 10.0, 10);
  a.Add(1.0);
  b.Add(9.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Count(), 2.0);
  EXPECT_NEAR(a.Quantile(0.75), 9.0, 1.1);
}

TEST(StreamingHistogramTest, EmptyQuantileIsZero) {
  StreamingHistogram h(0.0, 1.0, 10);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.CdfAt(0.5), 0.0);
  EXPECT_TRUE(h.CdfSeries().empty());
}

TEST(SummarizeTest, FieldsPopulated) {
  StreamingHistogram h(0.0, 100.0, 200);
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  const Summary s = Summarize(h);
  EXPECT_DOUBLE_EQ(s.count, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_NEAR(s.p50, 50.5, 1.0);
  EXPECT_NEAR(s.p90, 90.5, 1.5);
}

TEST(PercentileTest, ExactOrderStatistics) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.25), 2.0);
}

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, InterpolatesBetweenValues) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 5.0);
}

// The sort-once multi-quantile helper must agree with the one-at-a-time
// Percentile bit-for-bit, including unsorted input, repeated values, clamped
// p, and out-of-order quantile requests (AnalyzeRtf regression).
TEST(PercentilesTest, MatchesSingleQuantileCallsExactly) {
  const std::vector<double> xs = {5.0, 1.0,  3.0, 2.0,  4.0, 4.0,
                                  0.1, 99.5, 2.7, -3.0, 2.7, 8.25};
  const std::vector<double> ps = {0.95, 0.0, 0.5, 0.9, 1.0, 0.25, -0.5, 1.5};
  const std::vector<double> got = Percentiles(xs, ps);
  ASSERT_EQ(got.size(), ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(got[i], Percentile(xs, ps[i])) << "p=" << ps[i];
  }
}

TEST(PercentilesTest, EmptySamplesYieldZeros) {
  const std::vector<double> ps = {0.5, 0.9};
  const std::vector<double> got = Percentiles({}, ps);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 0.0);
  EXPECT_DOUBLE_EQ(got[1], 0.0);
}

// Pre-fix-failing regression: with mass {2.0 in bin0, 2.0 in bin5} and
// p = 0.5, the cumulative target (2.0) lands exactly on the running sum after
// bin 0, so the old `cum + counts_[i] >= target` scan stopped at the *empty*
// bin 1 and returned its lower edge (1.0). The quantile of the observed mass
// is the lower edge of the next populated bin.
TEST(StreamingHistogramTest, QuantileSkipsEmptyBinsOnExactBoundary) {
  StreamingHistogram h(0.0, 10.0, 10);
  h.Add(0.5, 2.0);  // bin 0
  h.Add(5.5, 2.0);  // bin 5
  const double q = h.Quantile(0.5);
  // Old behavior: 1.0 (lower edge of empty bin 1). Fixed: lower edge of the
  // populated bin 5, clamped into [min, max] = [0.5, 5.5].
  EXPECT_DOUBLE_EQ(q, 5.0);
  // And a boundary landing inside a populated bin is untouched.
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 0.5);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 5.5);
}

// Histogram quantile accuracy across bin counts (property sweep).
class HistogramBinSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(HistogramBinSweep, MedianAccuracyScalesWithBins) {
  StreamingHistogram h(0.0, 1000.0, GetParam());
  Rng rng(GetParam());
  for (int i = 0; i < 20000; ++i) {
    h.Add(rng.Uniform(0.0, 1000.0));
  }
  const double bin_width = 1000.0 / static_cast<double>(GetParam());
  EXPECT_NEAR(h.Quantile(0.5), 500.0, bin_width + 15.0);
}

INSTANTIATE_TEST_SUITE_P(Bins, HistogramBinSweep,
                         ::testing::Values(10, 50, 100, 200, 500, 1000));

}  // namespace
}  // namespace philly
