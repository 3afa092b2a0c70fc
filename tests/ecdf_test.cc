#include "stats/ecdf.h"

#include <gtest/gtest.h>

#include <initializer_list>

#include "util/rng.h"

namespace atlas::stats {
namespace {

Ecdf Of(std::initializer_list<double> samples) {
  Ecdf e;
  for (const double x : samples) e.Add(x);
  e.Finalize();
  return e;
}

TEST(EcdfTest, EvaluateStepFunction) {
  const Ecdf e = Of({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.Evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.Evaluate(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.Evaluate(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.Evaluate(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.Evaluate(100.0), 1.0);
}

TEST(EcdfTest, DuplicatesAccumulate) {
  const Ecdf e = Of({2.0, 2.0, 2.0, 5.0});
  EXPECT_DOUBLE_EQ(e.Evaluate(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e.Evaluate(1.99), 0.0);
}

TEST(EcdfTest, AddThenFinalize) {
  Ecdf e;
  e.Add(3.0);
  e.Add(1.0);
  e.Finalize();
  EXPECT_DOUBLE_EQ(e.Evaluate(1.0), 0.5);
  EXPECT_DOUBLE_EQ(e.Min(), 1.0);
  EXPECT_DOUBLE_EQ(e.Max(), 3.0);
}

TEST(EcdfTest, UnfinalizedThrows) {
  Ecdf e;
  e.Add(1.0);
  EXPECT_THROW(e.Evaluate(1.0), std::logic_error);
}

TEST(EcdfTest, EmptyThrows) {
  Ecdf e;
  e.Finalize();
  EXPECT_THROW(e.Evaluate(1.0), std::logic_error);
  EXPECT_THROW(e.Quantile(0.5), std::logic_error);
}

TEST(EcdfTest, QuantilesInterpolate) {
  const Ecdf e = Of({0.0, 10.0});
  EXPECT_DOUBLE_EQ(e.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(e.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(e.Quantile(1.0), 10.0);
}

TEST(EcdfTest, MedianOfOddCount) {
  const Ecdf e = Of({1.0, 2.0, 9.0});
  EXPECT_DOUBLE_EQ(e.Median(), 2.0);
}

TEST(EcdfTest, QuantileRangeChecked) {
  const Ecdf e = Of({1.0});
  EXPECT_THROW(e.Quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(e.Quantile(1.1), std::invalid_argument);
}

TEST(EcdfTest, LogGridMonotone) {
  util::Rng rng(7);
  Ecdf e;
  for (int i = 0; i < 1000; ++i) e.Add(rng.NextLogNormal(10, 1.5));
  e.Finalize();
  const auto grid = e.LogGrid(30);
  ASSERT_EQ(grid.size(), 30u);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i].first, grid[i - 1].first);
    EXPECT_GE(grid[i].second, grid[i - 1].second);
  }
  EXPECT_NEAR(grid.back().second, 1.0, 1e-12);
}

}  // namespace
}  // namespace atlas::stats
