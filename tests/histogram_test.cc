#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace atlas::stats {
namespace {

TEST(LogHistogramTest, DecadeBinning) {
  LogHistogram h(1.0, 1e4, 1);  // 4 bins, one per decade
  EXPECT_THROW(h.bin(4), std::out_of_range);
  h.Add(5);     // [1, 10)
  h.Add(50);    // [10, 100)
  h.Add(5000);  // [1000, 10000)
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(2), 0u);
  EXPECT_EQ(h.bin(3), 1u);
}

TEST(LogHistogramTest, UnderOverflow) {
  LogHistogram h(10.0, 1000.0, 2);
  h.Add(1.0);
  h.Add(0.0);
  h.Add(-5.0);
  h.Add(1e6);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(LogHistogramTest, BinEdgesAreGeometric) {
  LogHistogram h(1.0, 100.0, 1);
  EXPECT_NEAR(h.bin_mid(0), std::sqrt(10.0), 1e-9);
  EXPECT_NEAR(h.bin_mid(1), std::sqrt(1000.0), 1e-9);
}

TEST(LogHistogramTest, DetectsBimodalModes) {
  // Two lognormal populations a decade apart, like thumbnail vs. full-size
  // images (paper Fig. 5b).
  util::Rng rng(3);
  LogHistogram h(100.0, 1e7, 4);
  for (int i = 0; i < 5000; ++i) {
    h.Add(rng.NextLogNormal(std::log(8e3), 0.4));
    h.Add(rng.NextLogNormal(std::log(4e5), 0.4));
  }
  const auto modes = h.Modes(0.02);
  ASSERT_GE(modes.size(), 2u);
  EXPECT_GT(modes.back() / modes.front(), 10.0);
}

TEST(LogHistogramTest, UnimodalHasOneMode) {
  util::Rng rng(3);
  LogHistogram h(100.0, 1e7, 4);
  for (int i = 0; i < 5000; ++i) {
    h.Add(rng.NextLogNormal(std::log(5e4), 0.4));
  }
  EXPECT_EQ(h.Modes(0.02).size(), 1u);
}

TEST(LogHistogramTest, RejectsBadArgs) {
  EXPECT_THROW(LogHistogram(0.0, 10.0, 2), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 1.0, 2), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace atlas::stats
