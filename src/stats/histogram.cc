#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace atlas::stats {

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins_per_decade) {
  if (!(lo > 0.0) || !(hi > lo) || bins_per_decade == 0) {
    throw std::invalid_argument(
        "LogHistogram: need 0 < lo < hi and bins_per_decade > 0");
  }
  log_lo_ = std::log10(lo);
  step_ = 1.0 / static_cast<double>(bins_per_decade);
  const double decades = std::log10(hi) - log_lo_;
  const auto bins =
      static_cast<std::size_t>(std::ceil(decades / step_ - 1e-12));
  counts_.assign(std::max<std::size_t>(bins, 1), 0);
}

void LogHistogram::Add(double x, std::uint64_t weight) {
  total_ += weight;
  if (!(x > 0.0) || std::log10(x) < log_lo_) return;
  const double pos = (std::log10(x) - log_lo_) / step_;
  const auto idx = static_cast<std::size_t>(pos);
  if (idx < counts_.size()) counts_[idx] += weight;
}

double LogHistogram::bin_mid(std::size_t i) const {
  return std::pow(10.0, log_lo_ + step_ * (static_cast<double>(i) + 0.5));
}

std::vector<double> LogHistogram::Modes(double min_fraction) const {
  std::vector<double> modes;
  if (total_ == 0) return modes;
  const auto threshold =
      static_cast<double>(total_) * min_fraction;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i];
    if (static_cast<double>(c) < threshold) continue;
    const std::uint64_t left = i == 0 ? 0 : counts_[i - 1];
    const std::uint64_t right = i + 1 == counts_.size() ? 0 : counts_[i + 1];
    if (c >= left && c > right) modes.push_back(bin_mid(i));
  }
  return modes;
}

}  // namespace atlas::stats
