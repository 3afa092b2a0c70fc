#include "cluster/dtw.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/par.h"

namespace atlas::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// PairwiseDtw's shard: this many consecutive pairs of the condensed matrix,
// in its storage order. Shards are a pure function of n.
constexpr std::size_t kPairsPerBlock = 128;
// Pairs a shard's kernel evaluates at once, one per lane. Independent lanes
// keep kLanes dependency chains in flight where one pair has only one.
constexpr std::size_t kLanes = 8;

// Lane-interleaved inputs and dynamic-program rows for kLanes pairs of
// `len`-long series: element t of lane k sits at [t * kLanes + k]. Built
// once per shard and reused for every group of pairs in it.
struct LaneScratch {
  explicit LaneScratch(std::size_t len)
      : a(len * kLanes), b(len * kLanes), prev((len + 1) * kLanes),
        curr((len + 1) * kLanes) {}
  std::vector<double> a, b, prev, curr;
};

// DtwDistance of kLanes equal-length pairs at once, lane k comparing
// s.a's lane k with s.b's. Each lane evaluates DtwDistance's recurrence
// cell for cell — |a_i - b_j| plus the minimum of (up, left, diag), compared
// in std::min({up, left, diag})'s order — so out[k] has the reference's
// bits. `w` is DtwDistance's effective band for equal lengths. Cells outside
// the band stay +inf, as the reference's refilled rows do.
void DtwLanes(LaneScratch& s, std::size_t len, std::size_t w, double* out) {
  std::fill(s.prev.begin(), s.prev.end(), kInf);
  std::fill(s.curr.begin(), s.curr.end(), kInf);
  std::fill_n(s.prev.begin(), kLanes, 0.0);
  double* prev = s.prev.data();
  double* curr = s.curr.data();
  for (std::size_t i = 1; i <= len; ++i) {
    const std::size_t j_lo = i > w ? i - w : 1;
    const std::size_t j_hi = std::min(len, i + w);
    const double* ai = s.a.data() + (i - 1) * kLanes;
    // The cell left of the band: +inf, as in the reference. Cells right of
    // it were never written since the fill above.
    std::fill_n(curr + (j_lo - 1) * kLanes, kLanes, kInf);
    double left[kLanes];
    double diag[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k) {
      left[k] = kInf;
      diag[k] = prev[(j_lo - 1) * kLanes + k];
    }
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double* bj = s.b.data() + (j - 1) * kLanes;
      const double* up = prev + j * kLanes;
      double* cell = curr + j * kLanes;
      for (std::size_t k = 0; k < kLanes; ++k) {
        const double cost = std::abs(ai[k] - bj[k]);
        double best = up[k];
        if (left[k] < best) best = left[k];
        if (diag[k] < best) best = diag[k];
        diag[k] = up[k];
        left[k] = cost + best;
        cell[k] = left[k];
      }
    }
    std::swap(prev, curr);
  }
  for (std::size_t k = 0; k < kLanes; ++k) out[k] = prev[len * kLanes + k];
}

}  // namespace

double DtwDistance(const std::vector<double>& a, const std::vector<double>& b,
                   std::size_t band) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) throw std::invalid_argument("DtwDistance: empty series");
  // A band narrower than the length difference cannot align the ends.
  const std::size_t min_band = n > m ? n - m : m - n;
  const std::size_t w = band == 0 ? std::max(n, m) : std::max(band, min_band);

  // Two-row dynamic program; rows indexed by i (series a).
  std::vector<double> prev(m + 1, kInf), curr(m + 1, kInf);
  prev[0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(curr.begin(), curr.end(), kInf);
    const std::size_t j_lo = i > w ? i - w : 1;
    const std::size_t j_hi = std::min(m, i + w);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double cost = std::abs(a[i - 1] - b[j - 1]);
      const double best =
          std::min({prev[j], curr[j - 1], prev[j - 1]});
      curr[j] = cost + best;
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

DistanceMatrix::DistanceMatrix(std::size_t n) : n_(n) {
  if (n < 2) throw std::invalid_argument("DistanceMatrix: need >= 2 items");
  data_.assign(n * (n - 1) / 2, 0.0);
}

std::size_t DistanceMatrix::Index(std::size_t i, std::size_t j) const {
  if (i == j || i >= n_ || j >= n_) {
    throw std::out_of_range("DistanceMatrix: bad indices");
  }
  if (i > j) std::swap(i, j);
  // Condensed upper-triangular index.
  return i * n_ - i * (i + 1) / 2 + (j - i - 1);
}

double DistanceMatrix::Get(std::size_t i, std::size_t j) const {
  if (i == j) return 0.0;
  return data_[Index(i, j)];
}

void DistanceMatrix::Set(std::size_t i, std::size_t j, double d) {
  data_[Index(i, j)] = d;
}

DistanceMatrix PairwiseDtw(const std::vector<std::vector<double>>& series,
                           std::size_t band, int threads) {
  const std::size_t n = series.size();
  DistanceMatrix m(n);
  const std::size_t len = series[0].size();
  for (const auto& s : series) {
    if (s.size() != len) {
      throw std::invalid_argument("PairwiseDtw: series of unequal length");
    }
  }
  if (len == 0) throw std::invalid_argument("PairwiseDtw: empty series");
  const std::size_t w = band == 0 ? len : band;

  // Shard `block` fills pairs [block * kPairsPerBlock, ...) of the
  // condensed matrix in storage order, kLanes at a time; a short final
  // group pads its spare lanes with lane 0's pair and drops their results.
  // Every pair is written exactly once to its own slot, so no
  // synchronization is needed and the matrix is bit-identical at any
  // thread count.
  const std::size_t pairs = n * (n - 1) / 2;
  util::ParallelFor(
      (pairs + kPairsPerBlock - 1) / kPairsPerBlock,
      [&](std::size_t block) {
        const std::size_t first = block * kPairsPerBlock;
        const std::size_t last = std::min(pairs, first + kPairsPerBlock);
        // Condensed index `first` -> (i, j): skip whole rows of n-1-i pairs.
        std::size_t i = 0;
        std::size_t j = first;
        while (j >= n - 1 - i) {
          j -= n - 1 - i;
          ++i;
        }
        j += i + 1;
        LaneScratch scratch(len);
        std::array<std::pair<std::size_t, std::size_t>, kLanes> group;
        for (std::size_t p = first; p < last; p += kLanes) {
          const std::size_t used = std::min(kLanes, last - p);
          for (std::size_t k = 0; k < kLanes; ++k) {
            if (k < used) {
              group[k] = {i, j};
              if (++j == n) {
                ++i;
                j = i + 1;
              }
            } else {
              group[k] = group[0];
            }
            const auto& a = series[group[k].first];
            const auto& b = series[group[k].second];
            for (std::size_t t = 0; t < len; ++t) {
              scratch.a[t * kLanes + k] = a[t];
              scratch.b[t * kLanes + k] = b[t];
            }
          }
          double out[kLanes];
          DtwLanes(scratch, len, w, out);
          for (std::size_t k = 0; k < used; ++k) {
            m.Set(group[k].first, group[k].second, out[k]);
          }
        }
      },
      threads);
  return m;
}

}  // namespace atlas::cluster
