#include "stats/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>

namespace atlas::stats {
namespace {

TEST(TimeSeriesTest, AccumulateBuckets) {
  TimeSeries ts(1000, 10);
  ts.Accumulate(0);
  ts.Accumulate(999);
  ts.Accumulate(1000);
  ts.Accumulate(9999, 2.0);
  EXPECT_DOUBLE_EQ(ts[0], 2.0);
  EXPECT_DOUBLE_EQ(ts[1], 1.0);
  EXPECT_DOUBLE_EQ(ts[9], 2.0);
  EXPECT_DOUBLE_EQ(ts.Total(), 5.0);
}

TEST(TimeSeriesTest, OutOfWindowIgnored) {
  TimeSeries ts(1000, 10);
  ts.Accumulate(-1);
  ts.Accumulate(10000);
  EXPECT_DOUBLE_EQ(ts.Total(), 0.0);
}

TEST(TimeSeriesTest, RejectsBadBucketWidth) {
  EXPECT_THROW(TimeSeries(0, 5), std::invalid_argument);
  EXPECT_THROW(TimeSeries(-10, 5), std::invalid_argument);
}

TEST(TimeSeriesTest, SumNormalized) {
  TimeSeries ts(1, {2.0, 2.0, 4.0});
  const auto norm = ts.SumNormalized();
  EXPECT_DOUBLE_EQ(norm.Total(), 1.0);
  EXPECT_DOUBLE_EQ(norm[2], 0.5);
  // Zero series stays zero (no NaN).
  TimeSeries zero(1, 3);
  EXPECT_DOUBLE_EQ(zero.SumNormalized().Total(), 0.0);
}

TEST(TimeSeriesTest, SmoothedPreservesMeanOfFlat) {
  TimeSeries ts(1, {3.0, 3.0, 3.0, 3.0, 3.0});
  const auto sm = ts.Smoothed(3);
  for (std::size_t i = 0; i < sm.size(); ++i) EXPECT_DOUBLE_EQ(sm[i], 3.0);
}

TEST(TimeSeriesTest, SmoothedReducesSpike) {
  TimeSeries ts(1, {0.0, 0.0, 9.0, 0.0, 0.0});
  const auto sm = ts.Smoothed(3);
  EXPECT_DOUBLE_EQ(sm[2], 3.0);
  EXPECT_DOUBLE_EQ(sm[1], 3.0);
  EXPECT_DOUBLE_EQ(sm[0], 0.0);
}

TEST(TimeSeriesTest, SmoothWindowOneIsIdentity) {
  TimeSeries ts(1, {1.0, 2.0});
  const auto sm = ts.Smoothed(1);
  EXPECT_DOUBLE_EQ(sm[0], 1.0);
  EXPECT_DOUBLE_EQ(sm[1], 2.0);
}

}  // namespace
}  // namespace atlas::stats
