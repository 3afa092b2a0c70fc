#include "stats/timeseries.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace atlas::stats {

TimeSeries::TimeSeries(std::int64_t bucket_ms, std::size_t buckets)
    : bucket_ms_(bucket_ms), values_(buckets, 0.0) {
  if (bucket_ms <= 0) throw std::invalid_argument("TimeSeries: bucket_ms <= 0");
}

TimeSeries::TimeSeries(std::int64_t bucket_ms, std::vector<double> values)
    : bucket_ms_(bucket_ms), values_(std::move(values)) {
  if (bucket_ms <= 0) throw std::invalid_argument("TimeSeries: bucket_ms <= 0");
}

void TimeSeries::Accumulate(std::int64_t timestamp_ms, double weight) {
  if (timestamp_ms < 0) return;
  const auto idx = static_cast<std::size_t>(timestamp_ms / bucket_ms_);
  if (idx >= values_.size()) return;
  values_[idx] += weight;
}

double TimeSeries::Total() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

TimeSeries TimeSeries::SumNormalized() const {
  TimeSeries out = *this;
  const double total = Total();
  if (total > 0.0) {
    for (double& v : out.values_) v /= total;
  }
  return out;
}

TimeSeries TimeSeries::Smoothed(std::size_t window) const {
  if (window <= 1 || values_.empty()) return *this;
  TimeSeries out(bucket_ms_, values_.size());
  const std::size_t half = window / 2;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(values_.size(), i + half + 1);
    double sum = 0.0;
    for (std::size_t j = lo; j < hi; ++j) sum += values_[j];
    out.values_[i] = sum / static_cast<double>(hi - lo);
  }
  return out;
}

}  // namespace atlas::stats
