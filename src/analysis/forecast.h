// Traffic forecasting (§V implication).
//
// "due to their unique diurnal access patterns, it is important to
// separately account for adult traffic in the traffic forecasting models
// and network resource allocation." This module makes that testable: two
// standard short-term load forecasters (seasonal-naive and Holt-Winters
// with a 24h season) trained on the first days of the week and evaluated
// on the remainder. The ablation bench compares forecasting adult+non-adult
// traffic pooled vs. per-class models summed — the paper predicts the
// separated model wins because the phases differ.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "stats/timeseries.h"

namespace atlas::analysis {

struct ForecastResult {
  std::vector<double> predictions;  // one per held-out bucket
  double mae = 0.0;                 // mean absolute error
  double mape = 0.0;                // mean absolute percentage error (on
                                    // buckets with actual > 0)
  double rmse = 0.0;
};

// Additive Holt-Winters (triple exponential smoothing) with season length
// `season`; alpha/beta/gamma are the level/trend/season smoothing factors.
// Requires train_buckets >= 2 * season.
ForecastResult HoltWintersForecast(const stats::TimeSeries& series,
                                   std::size_t train_buckets,
                                   std::size_t season = 24,
                                   double alpha = 0.25, double beta = 0.02,
                                   double gamma = 0.3);

// Holt-Winters with per-series smoothing parameters chosen by grid search:
// the last season of the training window is held out as validation and the
// (alpha, gamma) pair minimizing its MAE wins. Parameter fitting is what
// makes separated-vs-pooled forecasting a real contest — with *fixed*
// parameters additive Holt-Winters is linear in the data, so the forecast
// of a sum equals the sum of the forecasts exactly.
ForecastResult HoltWintersAutoForecast(const stats::TimeSeries& series,
                                       std::size_t train_buckets,
                                       std::size_t season = 24);

// Hour-of-day template forecasting — the "operator model": assume traffic
// follows a fixed normalized daily profile (e.g. the well-known non-adult
// web curve) and only the daily level varies. Each held-out day's level is
// taken from the last training day; hours are distributed per the template.
// The paper's §V point is precisely that adult traffic violates the
// canonical template, so a pooled template model misallocates.
//
// HourProfile learns a normalized 24-bucket profile from the first
// `buckets` samples of an hourly series (profile sums to 1).
std::array<double, 24> HourProfile(const stats::TimeSeries& series,
                                   std::size_t buckets);

ForecastResult TemplateForecast(const stats::TimeSeries& series,
                                std::size_t train_buckets,
                                const std::array<double, 24>& hour_profile);

// Convenience: forecasts the sum of several component series two ways —
// (a) pooled: forecast the summed series directly;
// (b) separated: forecast each component and add the predictions.
// Returns {pooled, separated} errors against the true summed actuals.
struct PooledVsSeparated {
  ForecastResult pooled;
  ForecastResult separated;
};
PooledVsSeparated ComparePooledVsSeparated(
    const std::vector<stats::TimeSeries>& components,
    std::size_t train_buckets, std::size_t season = 24);

}  // namespace atlas::analysis
