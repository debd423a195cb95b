#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace philly {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform(5.0, 9.0);
    ASSERT_GE(u, 5.0);
    ASSERT_LT(u, 9.0);
  }
}

TEST(RngTest, BelowCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.Between(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(23);
  std::vector<double> xs(20001);
  for (auto& x : xs) {
    x = rng.Lognormal(std::log(42.0), 0.8);
  }
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 42.0, 2.0);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.15);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(37);
  double small_sum = 0.0;
  double large_sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    small_sum += static_cast<double>(rng.Poisson(3.0));
    large_sum += static_cast<double>(rng.Poisson(120.0));
  }
  EXPECT_NEAR(small_sum / kN, 3.0, 0.05);
  EXPECT_NEAR(large_sum / kN, 120.0, 0.5);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(41);
  const double weights[] = {1.0, 3.0, 0.0, 6.0};
  int counts[4] = {0, 0, 0, 0};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(RngTest, CategoricalNegativeWeightsTreatedAsZero) {
  Rng rng(43);
  const double weights[] = {-5.0, 1.0};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(47);
  Rng child = parent.Fork();
  // Parent and child should not produce the same sequence.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

// Property sweep: sampling helpers stay in-range across many seeds.
class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, SamplersStayInRange) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(rng.Uniform(), 0.0);
    EXPECT_LT(rng.Uniform(), 1.0);
    EXPECT_LT(rng.Below(17), 17u);
    EXPECT_GT(rng.Exponential(2.0), 0.0);
    EXPECT_GT(rng.Lognormal(0.0, 1.0), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace philly
