#include "analysis/forecast.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace atlas::analysis {
namespace {

void FillErrors(const stats::TimeSeries& series, std::size_t train_buckets,
                ForecastResult& result) {
  const std::size_t horizon = series.size() - train_buckets;
  double abs_sum = 0.0, sq_sum = 0.0, pct_sum = 0.0;
  std::size_t pct_n = 0;
  for (std::size_t h = 0; h < horizon; ++h) {
    const double actual = series[train_buckets + h];
    const double err = result.predictions[h] - actual;
    abs_sum += std::abs(err);
    sq_sum += err * err;
    if (actual > 0.0) {
      pct_sum += std::abs(err) / actual;
      ++pct_n;
    }
  }
  const double n = static_cast<double>(horizon);
  result.mae = abs_sum / n;
  result.rmse = std::sqrt(sq_sum / n);
  result.mape = pct_n == 0 ? 0.0 : pct_sum / static_cast<double>(pct_n);
}

void ValidateWindow(const stats::TimeSeries& series, std::size_t train_buckets,
                    std::size_t season) {
  if (season == 0) throw std::invalid_argument("forecast: season == 0");
  if (train_buckets < season) {
    throw std::invalid_argument("forecast: training window < one season");
  }
  if (train_buckets >= series.size()) {
    throw std::invalid_argument("forecast: nothing to hold out");
  }
}

}  // namespace

ForecastResult HoltWintersForecast(const stats::TimeSeries& series,
                                   std::size_t train_buckets,
                                   std::size_t season, double alpha,
                                   double beta, double gamma) {
  ValidateWindow(series, train_buckets, season);
  if (train_buckets < 2 * season) {
    throw std::invalid_argument(
        "HoltWintersForecast: need >= 2 seasons of training data");
  }
  // Initialization: level = mean of season 1; trend = mean per-bucket change
  // between seasons 1 and 2; seasonal = season-1 deviations from its mean.
  double season1_mean = 0.0, season2_mean = 0.0;
  for (std::size_t i = 0; i < season; ++i) {
    season1_mean += series[i];
    season2_mean += series[season + i];
  }
  season1_mean /= static_cast<double>(season);
  season2_mean /= static_cast<double>(season);

  double level = season1_mean;
  double trend = (season2_mean - season1_mean) / static_cast<double>(season);
  std::vector<double> seasonal(season);
  for (std::size_t i = 0; i < season; ++i) {
    seasonal[i] = series[i] - season1_mean;
  }

  for (std::size_t t = season; t < train_buckets; ++t) {
    const double value = series[t];
    const std::size_t s = t % season;
    const double last_level = level;
    level = alpha * (value - seasonal[s]) + (1.0 - alpha) * (level + trend);
    trend = beta * (level - last_level) + (1.0 - beta) * trend;
    seasonal[s] = gamma * (value - level) + (1.0 - gamma) * seasonal[s];
  }

  ForecastResult result;
  const std::size_t horizon = series.size() - train_buckets;
  result.predictions.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const std::size_t s = (train_buckets + h) % season;
    const double pred =
        level + trend * static_cast<double>(h + 1) + seasonal[s];
    result.predictions.push_back(std::max(pred, 0.0));
  }
  FillErrors(series, train_buckets, result);
  return result;
}

ForecastResult HoltWintersAutoForecast(const stats::TimeSeries& series,
                                       std::size_t train_buckets,
                                       std::size_t season) {
  ValidateWindow(series, train_buckets, season);
  if (train_buckets < 3 * season) {
    throw std::invalid_argument(
        "HoltWintersAutoForecast: need >= 3 seasons (one held out)");
  }
  // Validation split: fit on train - season, score on the final season.
  stats::TimeSeries train_view(series.bucket_ms(),
                               std::vector<double>(series.values().begin(),
                                                   series.values().begin() +
                                                       static_cast<long>(
                                                           train_buckets)));
  static constexpr double kAlphas[] = {0.05, 0.1, 0.2, 0.35, 0.5};
  static constexpr double kGammas[] = {0.05, 0.15, 0.3, 0.5};
  double best_mae = std::numeric_limits<double>::infinity();
  double best_alpha = 0.25, best_gamma = 0.3;
  for (double alpha : kAlphas) {
    for (double gamma : kGammas) {
      const auto fit = HoltWintersForecast(train_view, train_buckets - season,
                                           season, alpha, 0.02, gamma);
      if (fit.mae < best_mae) {
        best_mae = fit.mae;
        best_alpha = alpha;
        best_gamma = gamma;
      }
    }
  }
  return HoltWintersForecast(series, train_buckets, season, best_alpha, 0.02,
                             best_gamma);
}

std::array<double, 24> HourProfile(const stats::TimeSeries& series,
                                   std::size_t buckets) {
  buckets = std::min(buckets, series.size());
  std::array<double, 24> profile{};
  double total = 0.0;
  for (std::size_t i = 0; i < buckets; ++i) {
    profile[i % 24] += series[i];
    total += series[i];
  }
  if (total > 0.0) {
    for (double& p : profile) p /= total;
  } else {
    profile.fill(1.0 / 24.0);
  }
  return profile;
}

ForecastResult TemplateForecast(const stats::TimeSeries& series,
                                std::size_t train_buckets,
                                const std::array<double, 24>& hour_profile) {
  ValidateWindow(series, train_buckets, 24);
  // Daily level: total volume over the last full training day.
  double level = 0.0;
  for (std::size_t i = train_buckets - 24; i < train_buckets; ++i) {
    level += series[i];
  }
  ForecastResult result;
  const std::size_t horizon = series.size() - train_buckets;
  result.predictions.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    result.predictions.push_back(level *
                                 hour_profile[(train_buckets + h) % 24]);
  }
  FillErrors(series, train_buckets, result);
  return result;
}

PooledVsSeparated ComparePooledVsSeparated(
    const std::vector<stats::TimeSeries>& components,
    std::size_t train_buckets, std::size_t season) {
  if (components.empty()) {
    throw std::invalid_argument("ComparePooledVsSeparated: no components");
  }
  const std::size_t n = components.front().size();
  for (const auto& c : components) {
    if (c.size() != n) {
      throw std::invalid_argument("ComparePooledVsSeparated: length mismatch");
    }
  }
  stats::TimeSeries pooled(components.front().bucket_ms(), n);
  for (const auto& c : components) {
    for (std::size_t i = 0; i < n; ++i) pooled[i] += c[i];
  }

  PooledVsSeparated result;
  result.pooled = HoltWintersAutoForecast(pooled, train_buckets, season);

  // Separated: per-component forecasts (each with its own fitted
  // parameters), summed predictions, scored against the pooled actuals.
  result.separated.predictions.assign(n - train_buckets, 0.0);
  for (const auto& c : components) {
    const auto f = HoltWintersAutoForecast(c, train_buckets, season);
    for (std::size_t h = 0; h < f.predictions.size(); ++h) {
      result.separated.predictions[h] += f.predictions[h];
    }
  }
  double abs_sum = 0.0, sq_sum = 0.0, pct_sum = 0.0;
  std::size_t pct_n = 0;
  for (std::size_t h = 0; h < result.separated.predictions.size(); ++h) {
    const double actual = pooled[train_buckets + h];
    const double err = result.separated.predictions[h] - actual;
    abs_sum += std::abs(err);
    sq_sum += err * err;
    if (actual > 0.0) {
      pct_sum += std::abs(err) / actual;
      ++pct_n;
    }
  }
  const auto horizon = static_cast<double>(result.separated.predictions.size());
  result.separated.mae = abs_sum / horizon;
  result.separated.rmse = std::sqrt(sq_sum / horizon);
  result.separated.mape =
      pct_n == 0 ? 0.0 : pct_sum / static_cast<double>(pct_n);
  return result;
}

}  // namespace atlas::analysis
