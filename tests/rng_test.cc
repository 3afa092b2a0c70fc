#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace atlas::util {
namespace {

TEST(SplitMix64Test, DeterministicSequence) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.NextBounded(0), std::invalid_argument);
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
    EXPECT_FALSE(rng.NextBool(-1.0));
    EXPECT_TRUE(rng.NextBool(2.0));
  }
}

TEST(RngTest, NextBoolFrequency) {
  Rng rng(5);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianShifted) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(19);
  std::vector<double> v;
  const int n = 50001;
  for (int i = 0; i < n; ++i) v.push_back(rng.NextLogNormal(std::log(5.0), 1.0));
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  EXPECT_NEAR(v[n / 2], 5.0, 0.3);
}

TEST(RngTest, ParetoBounds) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.NextPareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ParetoMean) {
  // Mean = alpha x_m / (alpha - 1) for alpha > 1.
  Rng rng(23);
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += rng.NextPareto(1.0, 3.0);
  EXPECT_NEAR(sum / n, 1.5, 0.03);
}

TEST(RngTest, GeometricMean) {
  // Mean failures = (1-p)/p.
  Rng rng(31);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.NextGeometric(0.25));
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, GeometricPOneIsZero) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextGeometric(1.0), 0u);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(41);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextWeighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedRejectsBadInput) {
  Rng rng(1);
  std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.NextWeighted(negative), std::invalid_argument);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(rng.NextWeighted(zeros), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ShuffleChangesOrder) {
  Rng rng(43);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);
}

// Property: every named distribution stays deterministic under equal seeds.
class RngDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngDeterminismTest, SameSeedSameDraws) {
  Rng a(GetParam()), b(GetParam());
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDouble(), b.NextDouble());
    EXPECT_DOUBLE_EQ(a.NextGaussian(), b.NextGaussian());
    EXPECT_DOUBLE_EQ(a.NextLogNormal(0.0, 1.0), b.NextLogNormal(0.0, 1.0));
    EXPECT_EQ(a.NextGeometric(0.3), b.NextGeometric(0.3));
    EXPECT_EQ(a.NextBounded(97), b.NextBounded(97));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngDeterminismTest,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           ~0ULL));

}  // namespace
}  // namespace atlas::util
