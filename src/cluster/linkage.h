// Agglomerative hierarchical clustering.
//
// §IV-B: "We then use the pairwise DTW distance matrix to obtain
// hierarchical clusters for the request count time series. We use
// agglomerative hierarchical clustering to obtain dendrogram[s]".
//
// Standard bottom-up agglomeration with Lance-Williams distance updates;
// single, complete, and average linkage are supported (the paper does not
// name its linkage; average is the default and what Fig. 8 is regenerated
// with).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/dtw.h"

namespace atlas::cluster {

enum class Linkage : std::uint8_t { kSingle = 0, kComplete = 1, kAverage = 2 };

// One agglomeration step. Nodes 0..n-1 are leaves; merge k creates node
// n + k.
struct Merge {
  std::size_t left = 0;
  std::size_t right = 0;
  double height = 0.0;  // linkage distance at which the merge happened
  std::size_t size = 0; // leaves under the new node
};

class Dendrogram {
 public:
  Dendrogram(std::size_t leaves, std::vector<Merge> merges);

  const std::vector<Merge>& merges() const { return merges_; }

  // Flat clustering with exactly k clusters (1 <= k <= leaves): undo the
  // last k-1 merges. Returns a label in [0, k) per leaf; labels are ordered
  // by decreasing cluster size (label 0 = largest cluster).
  std::vector<std::size_t> CutAtK(std::size_t k) const;

  // Cluster sizes for a labeling.
  static std::vector<std::size_t> ClusterSizes(
      const std::vector<std::size_t>& labels);

 private:
  std::size_t leaves_;
  std::vector<Merge> merges_;
};

// Runs agglomerative clustering over a precomputed distance matrix.
Dendrogram AgglomerativeCluster(const DistanceMatrix& distances,
                                Linkage linkage = Linkage::kAverage);

// Mean silhouette coefficient of a flat clustering (quality diagnostic for
// choosing k). Singleton clusters contribute 0.
double SilhouetteScore(const DistanceMatrix& distances,
                       const std::vector<std::size_t>& labels);

}  // namespace atlas::cluster
