#include "analysis/forecast.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace atlas::analysis {
namespace {

// A pure 24h-seasonal signal over `days` days: value depends only on
// hour-of-day.
stats::TimeSeries SeasonalSignal(int days, double phase_hours = 0.0,
                                 double amplitude = 10.0, double mean = 20.0) {
  stats::TimeSeries ts(1, static_cast<std::size_t>(days) * 24);
  for (std::size_t h = 0; h < ts.size(); ++h) {
    ts[h] = mean + amplitude * std::cos(2.0 * M_PI *
                                        (static_cast<double>(h) - phase_hours) /
                                        24.0);
  }
  return ts;
}

TEST(HoltWintersTest, TracksSeasonalSignal) {
  const auto ts = SeasonalSignal(7);
  const auto f = HoltWintersForecast(ts, 5 * 24);
  EXPECT_LT(f.mae, 1.0);
  EXPECT_LT(f.mape, 0.1);
}

TEST(HoltWintersTest, TracksTrendedSeasonalSignal) {
  auto ts = SeasonalSignal(7);
  for (std::size_t h = 0; h < ts.size(); ++h) {
    ts[h] += 0.05 * static_cast<double>(h);  // slow upward trend
  }
  const auto hw = HoltWintersForecast(ts, 5 * 24);
  // Holt-Winters models the trend. Repeating the last training day cannot:
  // it lags by one day (1.2) on day 6 and two (2.4) on day 7, MAE 1.8.
  EXPECT_LT(hw.mae, 1.8);
}

TEST(HoltWintersTest, PredictionsNonNegative) {
  util::Rng rng(7);
  stats::TimeSeries ts(1, 7 * 24);
  for (std::size_t h = 0; h < ts.size(); ++h) {
    ts[h] = std::max(0.0, rng.NextGaussian(1.0, 2.0));
  }
  const auto f = HoltWintersForecast(ts, 5 * 24);
  for (double p : f.predictions) EXPECT_GE(p, 0.0);
}

TEST(HoltWintersTest, RequiresTwoSeasons) {
  const auto ts = SeasonalSignal(3);
  EXPECT_THROW(HoltWintersForecast(ts, 30), std::invalid_argument);
}

TEST(PooledVsSeparatedTest, SeparationWinsOnOpposedPhases) {
  // Two components with opposite phases and different trends: the pooled
  // series has a muddled seasonal profile, so per-component forecasting
  // should win — the paper's "account for adult traffic separately" claim.
  auto adult = SeasonalSignal(7, 2.0, 8.0, 15.0);    // peaks ~2am
  auto regular = SeasonalSignal(7, 21.0, 12.0, 30.0); // peaks ~9pm
  for (std::size_t h = 0; h < adult.size(); ++h) {
    adult[h] *= 1.0 + 0.002 * static_cast<double>(h);   // adult grows
    regular[h] *= 1.0 - 0.001 * static_cast<double>(h); // regular shrinks
  }
  const auto cmp = ComparePooledVsSeparated({adult, regular}, 5 * 24);
  EXPECT_LE(cmp.separated.mae, cmp.pooled.mae * 1.05);
}

TEST(PooledVsSeparatedTest, SinglComponentIdentical) {
  const auto ts = SeasonalSignal(7);
  const auto cmp = ComparePooledVsSeparated({ts}, 5 * 24);
  EXPECT_NEAR(cmp.pooled.mae, cmp.separated.mae, 1e-9);
}

TEST(HourProfileTest, NormalizedAndShapeCorrect) {
  const auto ts = SeasonalSignal(5, 2.0);
  const auto profile = HourProfile(ts, 5 * 24);
  double total = 0.0;
  for (double p : profile) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Peak at hour 2 (phase), trough at hour 14.
  EXPECT_GT(profile[2], profile[14]);
}

TEST(HourProfileTest, ZeroSeriesFallsBackToUniform) {
  stats::TimeSeries zero(1, 48);
  const auto profile = HourProfile(zero, 48);
  for (double p : profile) EXPECT_NEAR(p, 1.0 / 24.0, 1e-12);
}

TEST(TemplateForecastTest, PerfectWithMatchingTemplate) {
  const auto ts = SeasonalSignal(7, 3.0);
  const auto profile = HourProfile(ts, 5 * 24);
  const auto f = TemplateForecast(ts, 5 * 24, profile);
  EXPECT_LT(f.mape, 0.02);
}

TEST(TemplateForecastTest, WrongPhaseTemplateIsWorse) {
  const auto adult = SeasonalSignal(7, 2.0);       // 2am peak
  const auto canonical = SeasonalSignal(7, 21.0);  // 9pm peak
  const auto own = TemplateForecast(adult, 5 * 24, HourProfile(adult, 5 * 24));
  const auto wrong =
      TemplateForecast(adult, 5 * 24, HourProfile(canonical, 5 * 24));
  EXPECT_LT(own.mae, wrong.mae * 0.5);
}

TEST(HoltWintersAutoTest, AtLeastAsGoodAsFixedOnValidation) {
  util::Rng rng(9);
  auto ts = SeasonalSignal(7);
  for (std::size_t h = 0; h < ts.size(); ++h) ts[h] += rng.NextGaussian(0, 1.0);
  const auto auto_fit = HoltWintersAutoForecast(ts, 5 * 24);
  EXPECT_LT(auto_fit.mape, 0.25);
}

TEST(HoltWintersAutoTest, RequiresThreeSeasons) {
  const auto ts = SeasonalSignal(3);
  EXPECT_THROW(HoltWintersAutoForecast(ts, 2 * 24), std::invalid_argument);
}

TEST(PooledVsSeparatedTest, Validation) {
  EXPECT_THROW(ComparePooledVsSeparated({}, 24), std::invalid_argument);
  const auto a = SeasonalSignal(7);
  const auto b = SeasonalSignal(6);
  EXPECT_THROW(ComparePooledVsSeparated({a, b}, 5 * 24),
               std::invalid_argument);
}

}  // namespace
}  // namespace atlas::analysis
