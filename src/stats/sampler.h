// Distribution samplers for workload synthesis.
//
// ZipfSampler drives content popularity (the paper's long-tailed request
// distributions, Fig. 6); AliasTable provides O(1) sampling from arbitrary
// discrete distributions (device mixes, response-code priors, ...).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace atlas::stats {

// Zipf(s) over ranks {1..n}: P[k] proportional to k^-s.
// Uses Hörmann & Derflinger's rejection-inversion, O(1) per sample with no
// per-rank tables, valid for any s >= 0 (s == 1 handled via the limit form).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  // Returns a rank in [1, n].
  std::uint64_t Sample(util::Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double s() const { return s_; }

  // Exact probability mass of rank k (computes the normalization on first
  // use; O(n) once).
  double Pmf(std::uint64_t k) const;

 private:
  double H(double x) const;
  double HInverse(double u) const;

  std::uint64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double threshold_;
  mutable double normalizer_ = 0.0;  // lazily computed for Pmf
};

// Walker alias method: O(n) build, O(1) sample from a fixed discrete
// distribution.
class AliasTable {
 public:
  explicit AliasTable(const std::vector<double>& weights);

  std::size_t Sample(util::Rng& rng) const;
  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

}  // namespace atlas::stats
