// Log-binned histograms.
//
// LogHistogram is the workhorse for size and popularity data, which span
// many decades (bytes .. hundreds of MB; 1 .. 10^5 requests). It mirrors the
// log-scale x-axes of the paper's Figures 1, 2, 5, 6, 13 and 16.
#pragma once

#include <cstdint>
#include <vector>

namespace atlas::stats {

// Logarithmic bins: bins_per_decade bins per power of ten, starting at `lo`
// (> 0). Values below lo go to underflow.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, std::size_t bins_per_decade);

  void Add(double x, std::uint64_t weight = 1);

  std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  // Geometric midpoint of bin i.
  double bin_mid(std::size_t i) const;
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }

  // Detects modes: bins that are local maxima with at least `min_fraction`
  // of the total mass. Returns midpoints, ascending. Used to verify the
  // bimodal image-size distributions of Fig. 5(b).
  std::vector<double> Modes(double min_fraction = 0.02) const;

 private:
  double log_lo_;
  double step_;  // log10 width of one bin
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace atlas::stats
