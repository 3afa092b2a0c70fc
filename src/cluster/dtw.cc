#include "cluster/dtw.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
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

// W doubles as one GCC vector, and the same bits as W 64-bit integers.
template <std::size_t W>
struct Vec {
  typedef double D __attribute__((vector_size(W * sizeof(double))));
  typedef std::int64_t I __attribute__((vector_size(W * sizeof(double))));
};

// DtwDistance of kLanes equal-length pairs at once, lane k comparing s.a's
// lane k with s.b's, as kLanes / W vectors of W lanes. `w` is DtwDistance's
// effective band for equal lengths; cells outside the band stay +inf, as
// the reference's refilled rows do.
//
// Each lane evaluates the reference's recurrence cell for cell, so out[k]
// has DtwDistance's bits:
// - cost = |a_i - b_j| clears the sign bit, as std::abs does; a
//   compare-and-negate abs would keep the sign of -0.0 and of NaNs.
// - best: std::min({up, left, diag}) takes the first least of the three
//   under <. Here m = min(diag, up) is taken first, off the chain that
//   runs through `left`, and best = min(left, m). The two orders differ
//   only when left and diag tie below up with different bits, that is
//   +0.0 against -0.0, and no cell is -0.0: a cell is +inf, the +0.0
//   origin, or a sum of a cleared-sign cost and a cell. With a NaN among
//   the three, both orders pick the same operand.
// - A NaN cost is the cell, as in DtwDistance: m is masked to +0.0 in its
//   lane, which no cell undercuts, so the sum has one NaN operand and its
//   bits do not depend on the order the compiler gives the operands.
// - There is no multiply, so FMA contraction has nothing to fuse.
// Inlined into one function per width, so each is compiled for its own
// target; the loops over vectors unroll fully, keeping every lane's left
// and diag in registers.
template <std::size_t W>
[[gnu::always_inline]] inline void DtwLanes(LaneScratch& s, std::size_t len,
                                            std::size_t w, double* out) {
  using V = typename Vec<W>::D;
  using VI = typename Vec<W>::I;
  constexpr std::size_t kVecs = kLanes / W;
  static_assert(kVecs * W == kLanes && sizeof(V) == W * sizeof(double));
  const V inf = V{} + kInf;
  const VI abs_mask = VI{} + std::numeric_limits<std::int64_t>::max();
  std::fill(s.prev.begin(), s.prev.end(), kInf);
  std::fill(s.curr.begin(), s.curr.end(), kInf);
  std::fill_n(s.prev.begin(), kLanes, 0.0);
  // Held in locals: the cell stores below could otherwise alias the
  // vectors' data pointers, and each cell would reload them.
  const double* sa = s.a.data();
  const double* sb = s.b.data();
  double* prev = s.prev.data();
  double* curr = s.curr.data();
  for (std::size_t i = 1; i <= len; ++i) {
    const std::size_t j_lo = i > w ? i - w : 1;
    const std::size_t j_hi = std::min(len, i + w);
    // The cell left of the band: +inf, as in the reference. Cells right of
    // it were never written since the fill above.
    std::fill_n(curr + (j_lo - 1) * kLanes, kLanes, kInf);
    V a[kVecs]{};
    V left[kVecs]{};
    V diag[kVecs]{};
#pragma GCC unroll kLanes
    for (std::size_t v = 0; v < kVecs; ++v) {
      std::memcpy(&a[v], sa + (i - 1) * kLanes + v * W, sizeof(V));
      std::memcpy(&diag[v], prev + (j_lo - 1) * kLanes + v * W, sizeof(V));
      left[v] = inf;
    }
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double* bj = sb + (j - 1) * kLanes;
      const double* up = prev + j * kLanes;
      double* cell = curr + j * kLanes;
#pragma GCC unroll kLanes
      for (std::size_t v = 0; v < kVecs; ++v) {
        V b{};
        V u{};
        std::memcpy(&b, bj + v * W, sizeof(V));
        std::memcpy(&u, up + v * W, sizeof(V));
        const V cost = reinterpret_cast<V>(reinterpret_cast<VI>(a[v] - b) &
                                           abs_mask);
        const VI nan_cost = cost != cost;
        const V m = reinterpret_cast<V>(
            reinterpret_cast<VI>(diag[v] < u ? diag[v] : u) & ~nan_cost);
        diag[v] = u;
        left[v] = cost + (left[v] < m ? left[v] : m);
        std::memcpy(cell + v * W, &left[v], sizeof(V));
      }
    }
    std::swap(prev, curr);
  }
  std::copy_n(prev + len * kLanes, kLanes, out);
}

void DtwLanes2(LaneScratch& s, std::size_t len, std::size_t w, double* out) {
  DtwLanes<2>(s, len, w, out);
}

[[gnu::target("avx2")]] void DtwLanes4(LaneScratch& s, std::size_t len,
                                       std::size_t w, double* out) {
  DtwLanes<4>(s, len, w, out);
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
      // Where two NaNs meet in a sum, IEEE 754 leaves whose payload
      // survives to the implementation, and the compiler may order the
      // operands either way. A NaN cost is the cell, which pins the bits.
      curr[j] = std::isnan(cost) ? cost : cost + best;
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
    throw std::out_of_range("DistanceMatrix: bad indices i=" +
                            std::to_string(i) + ", j=" + std::to_string(j) +
                            " for n=" + std::to_string(n_));
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
  std::size_t width = 0;
  for (const std::size_t built : internal::kDtwWidths) {
    if (internal::CpuRunsDtwWidth(built)) width = built;
  }
  return internal::PairwiseDtw(series, band, threads, width);
}

namespace internal {

bool CpuRunsDtwWidth(std::size_t width) {
  return width == 2 || (width == 4 && __builtin_cpu_supports("avx2"));
}

DistanceMatrix PairwiseDtw(const std::vector<std::vector<double>>& series,
                           std::size_t band, int threads, std::size_t width) {
  if (!CpuRunsDtwWidth(width)) {
    throw std::invalid_argument("PairwiseDtw: no lane kernel " +
                                std::to_string(width) +
                                " doubles wide runs on this CPU");
  }
  const auto kernel = width == 4 ? &DtwLanes4 : &DtwLanes2;
  const std::size_t n = series.size();
  DistanceMatrix m(n);
  const std::size_t len = series[0].size();
  for (std::size_t k = 1; k < n; ++k) {
    if (series[k].size() != len) {
      throw std::invalid_argument(
          "PairwiseDtw: series of unequal length: series " +
          std::to_string(k) + " has " + std::to_string(series[k].size()) +
          " points, series 0 has " + std::to_string(len));
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
          kernel(scratch, len, w, out);
          for (std::size_t k = 0; k < used; ++k) {
            m.Set(group[k].first, group[k].second, out[k]);
          }
        }
      },
      threads);
  return m;
}

}  // namespace internal
}  // namespace atlas::cluster
