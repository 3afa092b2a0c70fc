// Popularity-trend clustering (Figs. 8, 9, 10).
//
// The paper's pipeline, end to end: build the hourly request-count time
// series of each (sufficiently requested) object, normalize, compute
// pairwise DTW distances, agglomerate into a dendrogram, cut into k
// clusters, then summarize each cluster by its medoid with point-wise
// standard deviations and name it via the shape classifier.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/dtw.h"
#include "cluster/linkage.h"
#include "cluster/medoid.h"
#include "synth/site_profile.h"
#include "trace/block.h"
#include "trace/record.h"
#include "trace/trace_buffer.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

struct TrendClusterConfig {
  // Only objects with at least this many requests get a series (sparser
  // objects have no meaningful shape).
  std::uint64_t min_requests = 30;
  // Cap on the number of objects clustered (top-by-request-count beyond the
  // threshold); DTW + linkage are O(n^2)/O(n^3).
  std::size_t max_objects = 250;
  // Centered moving-average window (hours) applied before normalization;
  // individual object series are sparse and DTW needs the envelope, not the
  // shot noise. 1 disables smoothing.
  std::size_t smooth_hours = 7;
  // Restrict to one content class (the paper clusters video and image
  // separately); nullopt-like flag: use_class false clusters everything.
  bool use_class = true;
  trace::ContentClass content_class = trace::ContentClass::kVideo;
  // Number of flat clusters to cut the dendrogram into.
  std::size_t k = 5;
  // Sakoe-Chiba band for DTW, in hours; 0 = unconstrained, which lets a
  // Monday burst align with a Thursday burst (how short-lived objects
  // injected on different days end up in one cluster).
  std::size_t dtw_band = 0;
  cluster::Linkage linkage = cluster::Linkage::kAverage;
};

struct TrendCluster {
  std::size_t label = 0;
  std::size_t member_count = 0;
  double share = 0.0;  // of clustered objects
  synth::PatternType shape = synth::PatternType::kOutlier;
  std::uint64_t medoid_url_hash = 0;
  std::vector<double> medoid_series;      // normalized hourly series
  std::vector<double> pointwise_stddev;
};

struct TrendClusterResult {
  std::string site;
  trace::ContentClass content_class = trace::ContentClass::kVideo;
  std::size_t clustered_objects = 0;
  std::vector<TrendCluster> clusters;  // ordered by decreasing size
  // Per-object shape classifications across all clustered objects (finer
  // grained than the per-cluster plurality labels).
  std::array<std::size_t, synth::kNumPatternTypes> member_shape_counts{};
  double silhouette = 0.0;
  cluster::Dendrogram dendrogram{1, {}};
  // url hash of each clustered object, in matrix order, plus its label —
  // kept for closed-loop validation against generator ground truth.
  std::vector<std::uint64_t> object_hashes;
  std::vector<std::size_t> labels;

  // Share of clustered objects whose own series classifies as `type`.
  double MemberShareOf(synth::PatternType type) const;
};

// Series building plus ClusterTrendSeries with threads = 0, i.e. the
// process default (util::DefaultThreads()) that CLI callers pin.
TrendClusterResult ComputeTrendClusters(const trace::TraceBuffer& trace,
                                        const std::string& site_name,
                                        const TrendClusterConfig& config);

// Single-pass accumulator behind BuildObjectHourlySeries: one 168-bin
// hourly histogram per qualifying-class object, so the series matrix is
// built without holding the trace. Finalize applies the qualification
// threshold, the deterministic count/hash ranking, smoothing, and
// sum-normalization.
class TrendSeriesAccumulator {
 public:
  explicit TrendSeriesAccumulator(const TrendClusterConfig& config);
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in that order.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  std::vector<std::pair<std::uint64_t, std::vector<double>>> Finalize();

 private:
  struct Acc {
    std::uint64_t count = 0;
    std::vector<double> hours;
  };
  TrendClusterConfig config_;
  util::FlatHashMap<std::uint64_t, Acc> accs_;
};

// Clustering back half of ComputeTrendClusters, operating on a prebuilt
// series matrix (from TrendSeriesAccumulator or BuildObjectHourlySeries).
// The pairwise DTW runs on `threads` workers (<= 0 means
// util::DefaultThreads()); linkage, silhouette and medoids are serial. The
// result is identical at any thread count.
TrendClusterResult ClusterTrendSeries(
    std::vector<std::pair<std::uint64_t, std::vector<double>>>
        series_by_object,
    const std::string& site_name, const TrendClusterConfig& config,
    int threads);

// Helper: hourly, sum-normalized request-count series per qualifying object
// (exposed for tests and the medoid figure benches).
std::vector<std::pair<std::uint64_t, std::vector<double>>>
BuildObjectHourlySeries(const trace::TraceBuffer& trace,
                        const TrendClusterConfig& config);

}  // namespace atlas::analysis
