#include "stats/sampler.h"

#include <cmath>
#include <deque>
#include <stdexcept>

namespace atlas::stats {

// --- ZipfSampler -----------------------------------------------------------
//
// Rejection-inversion after Hörmann & Derflinger, "Rejection-inversion to
// generate variates from monotone discrete distributions" (1996), the same
// scheme used by std::discrete-free Zipf samplers in several mature
// simulators. H is the integral of the (continuous) density x^-s.

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (s < 0.0) throw std::invalid_argument("ZipfSampler: s must be >= 0");
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s_));
}

double ZipfSampler::H(double x) const {
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::HInverse(double u) const {
  if (s_ == 1.0) return std::exp(u);
  return std::pow(1.0 + u * (1.0 - s_), 1.0 / (1.0 - s_));
}

std::uint64_t ZipfSampler::Sample(util::Rng& rng) const {
  while (true) {
    const double u = h_x1_ + rng.NextDouble() * (h_n_ - h_x1_);
    const double x = HInverse(u);
    const auto k = static_cast<std::uint64_t>(x + 0.5);
    const double kd = static_cast<double>(k);
    if (kd - x <= threshold_) {
      return std::min<std::uint64_t>(std::max<std::uint64_t>(k, 1), n_);
    }
    if (u >= H(kd + 0.5) - std::pow(kd, -s_)) {
      return std::min<std::uint64_t>(std::max<std::uint64_t>(k, 1), n_);
    }
  }
}

double ZipfSampler::Pmf(std::uint64_t k) const {
  if (k == 0 || k > n_) return 0.0;
  if (normalizer_ == 0.0) {
    double z = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i) {
      z += std::pow(static_cast<double>(i), -s_);
    }
    normalizer_ = z;
  }
  return std::pow(static_cast<double>(k), -s_) / normalizer_;
}

// --- AliasTable -------------------------------------------------------------

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("AliasTable: empty weights");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("AliasTable: weights must sum to > 0");
  }
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::deque<std::size_t> small, large;
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double normalized = weights[i] / total;
    scaled[i] = normalized * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.front();
    small.pop_front();
    const std::size_t l = large.front();
    large.pop_front();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  while (!large.empty()) {
    prob_[large.front()] = 1.0;
    large.pop_front();
  }
  while (!small.empty()) {  // numerical leftovers
    prob_[small.front()] = 1.0;
    small.pop_front();
  }
}

std::size_t AliasTable::Sample(util::Rng& rng) const {
  const std::size_t i =
      static_cast<std::size_t>(rng.NextBounded(prob_.size()));
  return rng.NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace atlas::stats
