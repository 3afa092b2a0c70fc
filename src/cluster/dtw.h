// Dynamic Time Warping.
//
// §IV-B: "We use Dynamic Time Warping (DTW) to compute similarity between
// two request count time series ... Using a dynamic programming approach,
// DTW computes all possible sets of mappings (warping paths) between two
// time series. The total cost of the optimal warping path is defined as the
// DTW distance."
//
// The implementation is the standard O(N*M) dynamic program with an
// optional Sakoe-Chiba band (|i - j| <= band) that both speeds up the
// computation and prevents pathological warps; band == 0 means
// unconstrained.
#pragma once

#include <cstddef>
#include <vector>

namespace atlas::cluster {

// Point-wise cost |a_i - b_j| ("the area between the time warped time
// series"). Returns +inf when the band makes alignment infeasible (cannot
// happen for band >= |N - M|). Throws on empty inputs. A cell whose cost is
// NaN is that NaN, so a NaN result's bits do not depend on how the
// compiler orders an addition's operands.
double DtwDistance(const std::vector<double>& a, const std::vector<double>& b,
                   std::size_t band = 0);

// Condensed symmetric distance matrix over n items.
class DistanceMatrix {
 public:
  explicit DistanceMatrix(std::size_t n);

  std::size_t size() const { return n_; }
  double Get(std::size_t i, std::size_t j) const;
  void Set(std::size_t i, std::size_t j, double d);

 private:
  std::size_t Index(std::size_t i, std::size_t j) const;
  std::size_t n_;
  std::vector<double> data_;
};

// DtwDistance(series[i], series[j], band) for every pair i < j, bit for
// bit. Requires at least two series, all of the same non-zero length;
// throws std::invalid_argument otherwise, naming the first series whose
// length differs from series 0's. The condensed matrix is filled in fixed
// blocks of consecutive pairs on `threads` workers (<= 0 means
// util::DefaultThreads(); run inline inside another parallel region), each
// block eight pairs at a time on vector lanes, with the widest lane kernel
// this CPU runs (internal::kDtwWidths). Every pair lands in its own slot,
// and every width computes the reference's recurrence lane for lane, so the
// result is identical for any thread count and on any CPU.
DistanceMatrix PairwiseDtw(const std::vector<std::vector<double>>& series,
                           std::size_t band = 0, int threads = 0);

namespace internal {

// The lane kernel's builds, by doubles per vector: width 2 runs on any
// x86-64, width 4 is compiled for AVX2.
inline constexpr std::size_t kDtwWidths[] = {2, 4};

// Whether this CPU runs the lane kernel built `width` doubles wide.
bool CpuRunsDtwWidth(std::size_t width);

// PairwiseDtw on the lane kernel built `width` doubles wide. Throws
// std::invalid_argument for a width that is not built or that this CPU
// does not run. PairwiseDtw passes the widest one; tests pass each.
DistanceMatrix PairwiseDtw(const std::vector<std::vector<double>>& series,
                           std::size_t band, int threads, std::size_t width);

}  // namespace internal
}  // namespace atlas::cluster
