#include "stats/ecdf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace atlas::stats {

void Ecdf::Add(double x) {
  samples_.push_back(x);
  finalized_ = false;
}

void Ecdf::Finalize() {
  if (!finalized_) {
    std::sort(samples_.begin(), samples_.end());
    finalized_ = true;
  }
}

void Ecdf::RequireFinalized() const {
  if (!finalized_) throw std::logic_error("Ecdf: not finalized");
  if (samples_.empty()) throw std::logic_error("Ecdf: empty");
}

double Ecdf::Evaluate(double x) const {
  RequireFinalized();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Ecdf::Quantile(double q) const {
  RequireFinalized();
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("Ecdf: q out of [0,1]");
  if (samples_.size() == 1) return samples_[0];
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= samples_.size()) return samples_.back();
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[lo + 1] - samples_[lo]);
}

double Ecdf::Min() const {
  RequireFinalized();
  return samples_.front();
}

double Ecdf::Max() const {
  RequireFinalized();
  return samples_.back();
}

std::vector<std::pair<double, double>> Ecdf::LogGrid(std::size_t points,
                                                     double lo_clamp) const {
  RequireFinalized();
  if (points < 2) throw std::invalid_argument("Ecdf::LogGrid: points < 2");
  std::vector<std::pair<double, double>> grid;
  grid.reserve(points);
  const double lo = std::max(samples_.front(), lo_clamp);
  const double hi = std::max(samples_.back(), lo * (1.0 + 1e-12));
  const double llo = std::log10(lo);
  const double lhi = std::log10(hi);
  for (std::size_t i = 0; i < points; ++i) {
    // Pin the endpoints exactly: pow/log round-tripping can land a hair
    // below the true max, which would leave the final CDF value below 1.
    const double x =
        i == 0 ? lo
        : i == points - 1
            ? hi
            : std::pow(10.0, llo + (lhi - llo) * static_cast<double>(i) /
                                       static_cast<double>(points - 1));
    grid.emplace_back(x, Evaluate(x));
  }
  return grid;
}

}  // namespace atlas::stats
