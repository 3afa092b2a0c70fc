#include "cluster/dtw.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "analysis/trend_cluster.h"
#include "scenario_fixtures.h"
#include "util/rng.h"
#include "util/time.h"

namespace atlas::cluster {
namespace {

TEST(DtwDistanceTest, IdenticalSeriesIsZero) {
  const std::vector<double> a = {1, 2, 3, 2, 1};
  EXPECT_DOUBLE_EQ(DtwDistance(a, a), 0.0);
}

TEST(DtwDistanceTest, KnownSmallExample) {
  // a={0,1}, b={1}: path (0,0),(1,0): cost |0-1| + |1-1| = 1.
  EXPECT_DOUBLE_EQ(DtwDistance({0, 1}, {1}), 1.0);
}

TEST(DtwDistanceTest, ConstantShiftCosts) {
  const std::vector<double> a = {0, 0, 0, 0};
  const std::vector<double> b = {1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), 4.0);
}

TEST(DtwDistanceTest, WarpsThroughTimeShift) {
  // The same bump at different positions: DTW should be much smaller than
  // the pointwise L1 distance.
  std::vector<double> a(40, 0.0), b(40, 0.0);
  for (int i = 0; i < 5; ++i) {
    a[static_cast<std::size_t>(5 + i)] = 1.0;
    b[static_cast<std::size_t>(25 + i)] = 1.0;
  }
  double l1 = 0;
  for (std::size_t i = 0; i < a.size(); ++i) l1 += std::abs(a[i] - b[i]);
  EXPECT_LT(DtwDistance(a, b), l1 / 2.0);
}

TEST(DtwDistanceTest, BandRestrictsWarping) {
  std::vector<double> a(40, 0.0), b(40, 0.0);
  for (int i = 0; i < 5; ++i) {
    a[static_cast<std::size_t>(5 + i)] = 1.0;
    b[static_cast<std::size_t>(25 + i)] = 1.0;
  }
  // A tight band cannot align bumps 20 steps apart.
  EXPECT_GT(DtwDistance(a, b, 3), DtwDistance(a, b, 0));
}

TEST(DtwDistanceTest, SymmetricInArguments) {
  util::Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(rng.NextDouble());
    b.push_back(rng.NextDouble());
  }
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), DtwDistance(b, a));
  EXPECT_DOUBLE_EQ(DtwDistance(a, b, 5), DtwDistance(b, a, 5));
}

TEST(DtwDistanceTest, NonNegative) {
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a, b;
    for (int i = 0; i < 20; ++i) {
      a.push_back(rng.NextGaussian());
      b.push_back(rng.NextGaussian());
    }
    EXPECT_GE(DtwDistance(a, b), 0.0);
  }
}

TEST(DtwDistanceTest, UnequalLengths) {
  EXPECT_NO_THROW(DtwDistance({1, 2, 3, 4, 5}, {1, 5}));
  // Band narrower than the length difference is widened internally.
  EXPECT_NO_THROW(DtwDistance({1, 2, 3, 4, 5, 6, 7, 8}, {1, 2}, 1));
}

TEST(DtwDistanceTest, EmptyThrows) {
  EXPECT_THROW(DtwDistance({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(DtwDistance({1.0}, {}), std::invalid_argument);
}

TEST(DistanceMatrixTest, SymmetricStorage) {
  DistanceMatrix m(4);
  m.Set(1, 3, 2.5);
  EXPECT_DOUBLE_EQ(m.Get(1, 3), 2.5);
  EXPECT_DOUBLE_EQ(m.Get(3, 1), 2.5);
  EXPECT_DOUBLE_EQ(m.Get(2, 2), 0.0);
}

TEST(DistanceMatrixTest, BoundsChecked) {
  DistanceMatrix m(3);
  EXPECT_THROW(m.Get(0, 3), std::out_of_range);
  EXPECT_THROW(m.Set(3, 0, 1.0), std::out_of_range);
  EXPECT_THROW(DistanceMatrix(1), std::invalid_argument);
}

TEST(PairwiseDtwTest, AllPairsFilled) {
  const std::vector<std::vector<double>> series = {
      {1, 2, 3}, {1, 2, 3}, {5, 5, 5}};
  const auto m = PairwiseDtw(series);
  EXPECT_DOUBLE_EQ(m.Get(0, 1), 0.0);
  EXPECT_GT(m.Get(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.Get(1, 2), m.Get(2, 1));
}

// Every slot of PairwiseDtw's matrix must hold DtwDistance's exact bits.
void ExpectMatchesReference(const std::vector<std::vector<double>>& series,
                            std::size_t band, int threads,
                            const std::string& tag) {
  const DistanceMatrix m = PairwiseDtw(series, band, threads);
  for (std::size_t i = 0; i < series.size(); ++i) {
    for (std::size_t j = i + 1; j < series.size(); ++j) {
      const double want = DtwDistance(series[i], series[j], band);
      const double got = m.Get(i, j);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << tag << " pair (" << i << ", " << j << "): " << got << " vs "
          << want;
    }
  }
}

// Sparse, tie-heavy series like the normalized trend panels: half the
// points are exactly zero, so the min over (up, left, diag) often ties.
std::vector<std::vector<double>> RandomPanel(std::size_t n, std::size_t len,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> series(n, std::vector<double>(len));
  for (auto& s : series) {
    for (double& x : s) x = rng.NextDouble() < 0.5 ? 0.0 : rng.NextDouble();
  }
  return series;
}

TEST(PairwiseDtwTest, MatchesReferenceBitForBit) {
  // 2, 3, and one short of, exactly and one past the kernel's 8 lanes;
  // 17 items make 136 pairs, past the first 128-pair block.
  for (const std::size_t n : {2u, 3u, 7u, 8u, 9u, 17u, 37u}) {
    for (const std::size_t len : {static_cast<std::size_t>(util::kHoursPerWeek),
                                  std::size_t{5}}) {
      const auto series = RandomPanel(n, len, 1000 + n * 7 + len);
      for (const std::size_t band : {std::size_t{0}, std::size_t{1},
                                     std::size_t{12}, len + 3}) {
        for (const int threads : {1, 2, 8}) {
          ExpectMatchesReference(series, band, threads,
                                 "n=" + std::to_string(n) +
                                     " len=" + std::to_string(len) +
                                     " band=" + std::to_string(band) +
                                     " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(PairwiseDtwTest, MatchesReferenceOnRealPanel) {
  // A trend panel as the suite clusters it: BuildObjectHourlySeries is the
  // TrendSeriesAccumulator's output at the default TrendClusterConfig.
  const auto study = testutil::RunPaperStudy(0.01, cdn::SimulatorConfig{}, 42);
  const auto by_object = analysis::BuildObjectHourlySeries(
      study.SiteTrace(0), analysis::TrendClusterConfig{});
  std::vector<std::vector<double>> series;
  for (const auto& [hash, s] : by_object) series.push_back(s);
  ASSERT_GE(series.size(), 20u);
  for (const int threads : {1, 2, 8}) {
    ExpectMatchesReference(series, 0, threads,
                           "V-1 video, threads=" + std::to_string(threads));
  }
}

TEST(PairwiseDtwTest, RaggedOrEmptySeriesThrow) {
  EXPECT_THROW(PairwiseDtw({{1, 2, 3}, {1, 2, 3}, {1, 2}}),
               std::invalid_argument);
  EXPECT_THROW(PairwiseDtw(std::vector<std::vector<double>>(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace atlas::cluster
