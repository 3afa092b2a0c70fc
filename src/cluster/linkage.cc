#include "cluster/linkage.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace atlas::cluster {

Dendrogram::Dendrogram(std::size_t leaves, std::vector<Merge> merges)
    : leaves_(leaves), merges_(std::move(merges)) {
  if (leaves < 1) throw std::invalid_argument("Dendrogram: no leaves");
  if (merges_.size() != leaves - 1) {
    throw std::invalid_argument("Dendrogram: merge count must be leaves-1");
  }
}

namespace {

// Resolves the flat labels implied by applying the first `applied` merges.
std::vector<std::size_t> LabelsFromMerges(std::size_t leaves,
                                          const std::vector<Merge>& merges,
                                          std::size_t applied) {
  // Union-find over node ids (leaves + internal).
  std::vector<std::size_t> parent(leaves + merges.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t k = 0; k < applied; ++k) {
    const std::size_t node = leaves + k;
    parent[find(merges[k].left)] = node;
    parent[find(merges[k].right)] = node;
  }
  // Compact roots to labels, ordered by decreasing cluster size (stable by
  // first appearance on ties).
  std::vector<std::size_t> root_of(leaves);
  std::vector<std::size_t> roots;
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < leaves; ++i) {
    const std::size_t r = find(i);
    root_of[i] = r;
    auto it = std::find(roots.begin(), roots.end(), r);
    if (it == roots.end()) {
      roots.push_back(r);
      counts.push_back(1);
    } else {
      ++counts[static_cast<std::size_t>(it - roots.begin())];
    }
  }
  std::vector<std::size_t> order(roots.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return counts[a] > counts[b];
  });
  std::vector<std::size_t> label_of_root(roots.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    label_of_root[order[rank]] = rank;
  }
  std::vector<std::size_t> labels(leaves);
  for (std::size_t i = 0; i < leaves; ++i) {
    const auto it = std::find(roots.begin(), roots.end(), root_of[i]);
    labels[i] = label_of_root[static_cast<std::size_t>(it - roots.begin())];
  }
  return labels;
}

}  // namespace

std::vector<std::size_t> Dendrogram::CutAtK(std::size_t k) const {
  if (k < 1 || k > leaves_) throw std::invalid_argument("CutAtK: bad k");
  return LabelsFromMerges(leaves_, merges_, leaves_ - k);
}

std::vector<std::size_t> Dendrogram::ClusterSizes(
    const std::vector<std::size_t>& labels) {
  std::size_t k = 0;
  for (std::size_t l : labels) k = std::max(k, l + 1);
  std::vector<std::size_t> sizes(k, 0);
  for (std::size_t l : labels) ++sizes[l];
  return sizes;
}

Dendrogram AgglomerativeCluster(const DistanceMatrix& distances,
                                Linkage linkage) {
  const std::size_t n = distances.size();
  // Working copy of pairwise distances between active clusters.
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      d[i][j] = distances.Get(i, j);
    }
  }
  std::vector<bool> active(n, true);
  std::vector<std::size_t> node_id(n);   // current dendrogram node per slot
  std::vector<std::size_t> cluster_size(n, 1);
  std::iota(node_id.begin(), node_id.end(), std::size_t{0});

  std::vector<Merge> merges;
  merges.reserve(n - 1);
  for (std::size_t step = 0; step + 1 < n; ++step) {
    // Find the closest active pair.
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (std::size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        if (d[i][j] < best) {
          best = d[i][j];
          bi = i;
          bj = j;
        }
      }
    }
    // Merge bj into bi; Lance-Williams update of distances to bi.
    const double ni = static_cast<double>(cluster_size[bi]);
    const double nj = static_cast<double>(cluster_size[bj]);
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi || k == bj) continue;
      double nd = 0.0;
      switch (linkage) {
        case Linkage::kSingle:
          nd = std::min(d[bi][k], d[bj][k]);
          break;
        case Linkage::kComplete:
          nd = std::max(d[bi][k], d[bj][k]);
          break;
        case Linkage::kAverage:
          nd = (ni * d[bi][k] + nj * d[bj][k]) / (ni + nj);
          break;
      }
      d[bi][k] = nd;
      d[k][bi] = nd;
    }
    active[bj] = false;
    Merge merge;
    merge.left = node_id[bi];
    merge.right = node_id[bj];
    merge.height = best;
    merge.size = cluster_size[bi] + cluster_size[bj];
    cluster_size[bi] += cluster_size[bj];
    node_id[bi] = n + step;
    merges.push_back(merge);
  }
  return Dendrogram(n, std::move(merges));
}

double SilhouetteScore(const DistanceMatrix& distances,
                       const std::vector<std::size_t>& labels) {
  const std::size_t n = distances.size();
  if (labels.size() != n) {
    throw std::invalid_argument("SilhouetteScore: label count mismatch");
  }
  std::size_t k = 0;
  for (std::size_t l : labels) k = std::max(k, l + 1);
  if (k < 2) return 0.0;
  const auto sizes = Dendrogram::ClusterSizes(labels);

  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sizes[labels[i]] < 2) continue;  // singleton: contributes 0
    std::vector<double> mean_dist(k, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      mean_dist[labels[j]] += distances.Get(i, j);
      ++counts[labels[j]];
    }
    const double a = mean_dist[labels[i]] /
                     static_cast<double>(sizes[labels[i]] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c) {
      if (c == labels[i] || counts[c] == 0) continue;
      b = std::min(b, mean_dist[c] / static_cast<double>(counts[c]));
    }
    if (!std::isfinite(b)) continue;
    const double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(n);
}

}  // namespace atlas::cluster
