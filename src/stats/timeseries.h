// Fixed-interval time series.
//
// Per-object hourly request-count series are the input to the paper's DTW
// clustering (Figs. 8-10); site-level hourly volume series are Fig. 3.
// A TimeSeries is a dense vector of values at a fixed bucket width, with the
// transforms the analyses need: normalization and smoothing.
#pragma once

#include <cstdint>
#include <vector>

namespace atlas::stats {

class TimeSeries {
 public:
  TimeSeries() = default;
  // `bucket_ms` is the width of one sample; `buckets` the fixed length.
  TimeSeries(std::int64_t bucket_ms, std::size_t buckets);
  TimeSeries(std::int64_t bucket_ms, std::vector<double> values);

  // Accumulates `weight` into the bucket containing `timestamp_ms`.
  // Timestamps outside [0, buckets*bucket_ms) are ignored (they fall outside
  // the observation window, as in the paper's one-week trace).
  void Accumulate(std::int64_t timestamp_ms, double weight = 1.0);

  std::size_t size() const { return values_.size(); }
  std::int64_t bucket_ms() const { return bucket_ms_; }
  double operator[](std::size_t i) const { return values_[i]; }
  double& operator[](std::size_t i) { return values_[i]; }
  const std::vector<double>& values() const { return values_; }

  double Total() const;

  // Sum-normalized copy (series sums to 1; zero series stays zero). This is
  // the "normalized request count" of the paper's medoid plots.
  TimeSeries SumNormalized() const;

  // Centered moving average with the given full window (odd preferred).
  TimeSeries Smoothed(std::size_t window) const;

 private:
  std::int64_t bucket_ms_ = 1;
  std::vector<double> values_;
};

}  // namespace atlas::stats
