#include "cluster/dtw.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

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

// The message `f` throws as an exception of type E; "" when it throws none.
template <typename E, typename F>
std::string ThrownMessage(F f) {
  try {
    f();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

TEST(DistanceMatrixTest, BoundsChecked) {
  DistanceMatrix m(3);
  EXPECT_THROW(m.Get(0, 3), std::out_of_range);
  EXPECT_THROW(m.Set(3, 0, 1.0), std::out_of_range);
  EXPECT_THROW(DistanceMatrix(1), std::invalid_argument);
  // The message names both indices and the size.
  EXPECT_EQ(ThrownMessage<std::out_of_range>([&] { m.Get(0, 3); }),
            "DistanceMatrix: bad indices i=0, j=3 for n=3");
  EXPECT_EQ(ThrownMessage<std::out_of_range>([&] { m.Set(3, 0, 1.0); }),
            "DistanceMatrix: bad indices i=3, j=0 for n=3");
  EXPECT_EQ(ThrownMessage<std::out_of_range>([&] { m.Set(1, 1, 1.0); }),
            "DistanceMatrix: bad indices i=1, j=1 for n=3");
}

TEST(PairwiseDtwTest, AllPairsFilled) {
  const std::vector<std::vector<double>> series = {
      {1, 2, 3}, {1, 2, 3}, {5, 5, 5}};
  const auto m = PairwiseDtw(series);
  EXPECT_DOUBLE_EQ(m.Get(0, 1), 0.0);
  EXPECT_GT(m.Get(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(m.Get(1, 2), m.Get(2, 1));
}

// The lane kernel widths this CPU runs. Names each built width on standard
// output, as run or as skipped because the CPU lacks it.
std::vector<std::size_t> RunnableWidths() {
  std::vector<std::size_t> widths;
  for (const std::size_t width : internal::kDtwWidths) {
    const bool runs = internal::CpuRunsDtwWidth(width);
    std::cout << "[   INFO   ] lane kernel " << width << " doubles wide: "
              << (runs ? "runs" : "SKIPPED, this CPU lacks it") << "\n";
    if (runs) widths.push_back(width);
  }
  return widths;
}

// Every slot of PairwiseDtw's matrix must hold DtwDistance's exact bits, on
// each lane kernel width in `widths` and at 1, 2 and 8 threads.
void ExpectMatchesReference(const std::vector<std::vector<double>>& series,
                            std::size_t band,
                            const std::vector<std::size_t>& widths,
                            const std::string& tag) {
  const std::size_t n = series.size();
  std::vector<double> want;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      want.push_back(DtwDistance(series[i], series[j], band));
    }
  }
  for (const std::size_t width : widths) {
    for (const int threads : {1, 2, 8}) {
      const DistanceMatrix m =
          internal::PairwiseDtw(series, band, threads, width);
      std::size_t p = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j, ++p) {
          const double got = m.Get(i, j);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(want[p]))
              << tag << " width=" << width << " threads=" << threads
              << " pair (" << i << ", " << j << "): " << got << " vs "
              << want[p];
        }
      }
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

// Values no trend panel holds, chosen where a kernel could part from the
// reference's bits: NaNs with four payloads and both signs (one signaling),
// +-inf, whose same-signed differences are NaNs, +-1e308, whose sums
// overflow, -0.0 and +0.0, whose differences can be -0.0, and subnormals.
// Series k draws one in 0, 1/64, 1/8 or 1/2 of its points, by k % 4, and
// otherwise an ordinary value of either sign, exactly zero half the time.
std::vector<std::vector<double>> AdversarialPanel(std::size_t n,
                                                  std::size_t len,
                                                  std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Top 16 bits (sign, exponent, quiet bit) and low payload bits.
  const auto nan = [](std::uint64_t high, std::uint64_t payload) {
    return std::bit_cast<double>(high << 48 | payload);
  };
  const double specials[] = {
      nan(0x7ff8, 0),
      nan(0xfff8, 0),
      nan(0x7ff8, 0xbeef),
      nan(0xfff4, 0x123),
      kInf,
      -kInf,
      1e308,
      -1e308,
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1e-310,
      -2.5e-320,
  };
  const double rates[] = {0.0, 1.0 / 64, 1.0 / 8, 0.5};
  util::Rng rng(seed);
  std::vector<std::vector<double>> series(n, std::vector<double>(len));
  for (std::size_t k = 0; k < n; ++k) {
    for (double& x : series[k]) {
      if (rng.NextDouble() < rates[k % 4]) {
        x = specials[rng.NextBounded(std::size(specials))];
      } else if (rng.NextDouble() < 0.5) {
        x = 0.0;
      } else {
        x = 4.0 * rng.NextDouble() - 2.0;
      }
    }
  }
  return series;
}

TEST(PairwiseDtwTest, MatchesReferenceBitForBit) {
  const auto widths = RunnableWidths();
  // 2, 3, and one short of, exactly and one past the kernel's 8 lanes;
  // 17 items make 136 pairs, past the first 128-pair block.
  for (const std::size_t n : {2u, 3u, 7u, 8u, 9u, 17u, 37u}) {
    for (const std::size_t len : {static_cast<std::size_t>(util::kHoursPerWeek),
                                  std::size_t{5}}) {
      const auto series = RandomPanel(n, len, 1000 + n * 7 + len);
      for (const std::size_t band : {std::size_t{0}, std::size_t{1},
                                     std::size_t{12}, len + 3}) {
        ExpectMatchesReference(series, band, widths,
                               "n=" + std::to_string(n) +
                                   " len=" + std::to_string(len) +
                                   " band=" + std::to_string(band));
      }
    }
  }
  // 40 items make 780 pairs, over seven blocks.
  const std::size_t len = util::kHoursPerWeek;
  const auto adversarial = AdversarialPanel(40, len, 2026);
  for (const std::size_t band :
       {std::size_t{0}, std::size_t{1}, std::size_t{12}, len + 3}) {
    ExpectMatchesReference(adversarial, band, widths,
                           "adversarial band=" + std::to_string(band));
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
  ExpectMatchesReference(series, 0, RunnableWidths(), "V-1 video");
}

TEST(PairwiseDtwTest, UnbuiltWidthThrows) {
  const std::vector<std::vector<double>> series = {{1, 2}, {2, 1}};
  for (const std::size_t width : {0u, 1u, 3u, 8u}) {
    EXPECT_FALSE(internal::CpuRunsDtwWidth(width)) << width;
    EXPECT_THROW(internal::PairwiseDtw(series, 0, 1, width),
                 std::invalid_argument)
        << width;
  }
  EXPECT_TRUE(internal::CpuRunsDtwWidth(2));
}

TEST(PairwiseDtwTest, RaggedOrEmptySeriesThrow) {
  EXPECT_THROW(PairwiseDtw({{1, 2, 3}, {1, 2, 3}, {1, 2}}),
               std::invalid_argument);
  EXPECT_THROW(PairwiseDtw(std::vector<std::vector<double>>(2)),
               std::invalid_argument);
  // The message names the first series at fault, its length and series 0's.
  EXPECT_EQ(ThrownMessage<std::invalid_argument>([] {
              PairwiseDtw({{1, 2, 3}, {1, 2, 3}, {1, 2}, {1}});
            }),
            "PairwiseDtw: series of unequal length: series 2 has 2 points, "
            "series 0 has 3");
}

}  // namespace
}  // namespace atlas::cluster
