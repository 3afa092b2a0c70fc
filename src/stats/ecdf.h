// Empirical cumulative distribution functions.
//
// The paper's figures 5, 6, 11, 12, 14 and 15 are all CDFs; Ecdf is the type
// every analysis returns for them, and it knows how to evaluate itself at
// arbitrary points, extract quantiles, and print itself as a fixed grid of
// (x, F(x)) rows so bench binaries can emit figure series.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace atlas::stats {

class Ecdf {
 public:
  void Add(double x);
  // Must be called after the last Add and before evaluation. Idempotent.
  void Finalize();

  std::uint64_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // F(x) = P[X <= x]. Requires a finalized, non-empty ECDF.
  double Evaluate(double x) const;

  // Quantile q in [0, 1]; linear interpolation between order statistics.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  double Min() const;
  double Max() const;

  // Evaluation grid: `points` log-spaced x values spanning [max(min, lo_clamp),
  // max]. Suitable for the log-x CDF plots in the paper.
  std::vector<std::pair<double, double>> LogGrid(std::size_t points,
                                                 double lo_clamp = 1e-12) const;

  const std::vector<double>& sorted_samples() const { return samples_; }

 private:
  void RequireFinalized() const;

  std::vector<double> samples_;
  bool finalized_ = false;
};

}  // namespace atlas::stats
