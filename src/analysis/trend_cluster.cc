#include "analysis/trend_cluster.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

#include "analysis/feed.h"
#include "cluster/shape.h"
#include "stats/timeseries.h"
#include "trace/content_class.h"
#include "util/time.h"

namespace atlas::analysis {

double TrendClusterResult::MemberShareOf(synth::PatternType type) const {
  if (clustered_objects == 0) return 0.0;
  return static_cast<double>(
             member_shape_counts[static_cast<std::size_t>(type)]) /
         static_cast<double>(clustered_objects);
}

TrendSeriesAccumulator::TrendSeriesAccumulator(
    const TrendClusterConfig& config)
    : config_(config) {}

void TrendSeriesAccumulator::AddBatch(const trace::RecordBlock& b,
                                      const std::uint32_t* rows,
                                      std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    if (config_.use_class &&
        trace::ClassOf(b.file_type[i]) != config_.content_class) {
      continue;
    }
    auto& acc = accs_[b.url_hash[i]];
    if (acc.hours.empty()) {
      acc.hours.assign(static_cast<std::size_t>(util::kHoursPerWeek), 0.0);
    }
    ++acc.count;
    const auto hour = static_cast<std::size_t>(std::clamp<std::int64_t>(
        b.timestamp_ms[i] / util::kMillisPerHour, 0, util::kHoursPerWeek - 1));
    acc.hours[hour] += 1.0;
  }
}

std::vector<std::pair<std::uint64_t, std::vector<double>>>
TrendSeriesAccumulator::Finalize() {
  // Qualify and rank by request count.
  std::vector<std::pair<std::uint64_t, Acc*>> qualified;
  // qualified is fully sorted below with a deterministic tie-break, so
  // collection order is irrelevant.
  accs_.ForEachMutable([&](std::uint64_t hash, Acc& acc) {
    if (acc.count >= config_.min_requests) qualified.emplace_back(hash, &acc);
  });
  std::sort(qualified.begin(), qualified.end(),
            [](const auto& a, const auto& b) {
              if (a.second->count != b.second->count) {
                return a.second->count > b.second->count;
              }
              return a.first < b.first;  // deterministic tie-break
            });
  if (qualified.size() > config_.max_objects) {
    qualified.resize(config_.max_objects);
  }

  std::vector<std::pair<std::uint64_t, std::vector<double>>> out;
  out.reserve(qualified.size());
  for (auto& [hash, acc] : qualified) {
    // Smooth (objects are sparse at hour granularity), then sum-normalize:
    // shape, not magnitude (the paper's "normalized request count").
    stats::TimeSeries ts(util::kMillisPerHour, acc->hours);
    if (config_.smooth_hours > 1) ts = ts.Smoothed(config_.smooth_hours);
    ts = ts.SumNormalized();
    out.emplace_back(hash, ts.values());
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::vector<double>>>
BuildObjectHourlySeries(const trace::TraceBuffer& trace,
                        const TrendClusterConfig& config) {
  TrendSeriesAccumulator acc(config);
  FeedTrace(trace, acc);
  return acc.Finalize();
}

TrendClusterResult ClusterTrendSeries(
    std::vector<std::pair<std::uint64_t, std::vector<double>>>
        series_by_object,
    const std::string& site_name, const TrendClusterConfig& config,
    int threads) {
  TrendClusterResult result;
  result.site = site_name;
  result.content_class = config.content_class;
  result.clustered_objects = series_by_object.size();
  if (series_by_object.size() < 2) return result;

  std::vector<std::vector<double>> series;
  series.reserve(series_by_object.size());
  result.object_hashes.reserve(series_by_object.size());
  for (auto& [hash, s] : series_by_object) {
    result.object_hashes.push_back(hash);
    series.push_back(std::move(s));
  }

  const cluster::DistanceMatrix distances =
      cluster::PairwiseDtw(series, config.dtw_band, threads);
  result.dendrogram = cluster::AgglomerativeCluster(distances, config.linkage);
  const std::size_t k = std::min(config.k, series.size());
  result.labels = result.dendrogram.CutAtK(k);
  result.silhouette = cluster::SilhouetteScore(distances, result.labels);

  // Per-member shape votes: a cluster is named by the plurality shape of
  // its members (robust when a cluster's medoid sits near a boundary).
  std::vector<synth::PatternType> member_shape(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    member_shape[i] = cluster::ClassifyShape(series[i]);
    ++result.member_shape_counts[static_cast<std::size_t>(member_shape[i])];
  }

  const auto summaries =
      cluster::SummarizeClusters(distances, series, result.labels);
  result.clusters.reserve(summaries.size());
  for (const auto& s : summaries) {
    TrendCluster c;
    c.label = s.cluster_label;
    c.member_count = s.member_count;
    c.share = static_cast<double>(s.member_count) /
              static_cast<double>(series.size());
    c.medoid_url_hash = result.object_hashes[s.medoid_item];
    c.medoid_series = s.medoid_series;
    c.pointwise_stddev = s.pointwise_stddev;
    std::array<std::size_t, synth::kNumPatternTypes> votes{};
    for (std::size_t i = 0; i < result.labels.size(); ++i) {
      if (result.labels[i] == s.cluster_label) {
        ++votes[static_cast<std::size_t>(member_shape[i])];
      }
    }
    const auto winner = static_cast<std::size_t>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    c.shape = static_cast<synth::PatternType>(winner);
    result.clusters.push_back(std::move(c));
  }
  // Largest first (labels from CutAtK are already size-ordered, but the
  // summaries iterate label order; keep it explicit).
  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const TrendCluster& a, const TrendCluster& b) {
              return a.member_count > b.member_count;
            });
  return result;
}

TrendClusterResult ComputeTrendClusters(const trace::TraceBuffer& trace,
                                        const std::string& site_name,
                                        const TrendClusterConfig& config) {
  return ClusterTrendSeries(BuildObjectHourlySeries(trace, config), site_name,
                            config, 0);
}

}  // namespace atlas::analysis
