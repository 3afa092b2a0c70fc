#include "analysis/suite.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "analysis/report.h"
#include "util/logging.h"
#include "util/par.h"

namespace atlas::analysis {

SiteAccumulator::SiteAccumulator(const trace::Publisher& publisher,
                                 const SuiteConfig& config)
    : publisher_(publisher),
      run_trend_clusters_(config.run_trend_clusters),
      video_trend_config_(config.trend),
      image_trend_config_(config.trend) {
  video_trend_config_.use_class = true;
  video_trend_config_.content_class = trace::ContentClass::kVideo;
  image_trend_config_.use_class = true;
  image_trend_config_.content_class = trace::ContentClass::kImage;
  if (run_trend_clusters_) {
    video_series_.emplace(video_trend_config_);
    image_series_.emplace(image_trend_config_);
  }
}

void SiteAccumulator::AddBatch(const trace::RecordBlock& b,
                               const std::uint32_t* rows, std::size_t n) {
  records_ += n;
  summary_.AddBatch(b, rows, n);
  composition_.AddBatch(b, rows, n);
  hourly_.AddBatch(b, rows, n);
  devices_.AddBatch(b, rows, n);
  sizes_.AddBatch(b, rows, n);
  popularity_.AddBatch(b, rows, n);
  aging_.AddBatch(b, rows, n);
  sessions_.AddBatch(b, rows, n);
  engagement_.AddBatch(b, rows, n);
  caching_.AddBatch(b, rows, n);
  if (video_series_) video_series_->AddBatch(b, rows, n);
  if (image_series_) image_series_->AddBatch(b, rows, n);
}

SiteAnalysis SiteAccumulator::Finalize() {
  ATLAS_LOG(kInfo) << "analyzing " << publisher_.name << " (" << records_
                   << " records)";
  SiteAnalysis a;
  a.site = publisher_.name;
  a.kind = publisher_.kind;
  a.summary = summary_.Finalize(publisher_.name);
  a.composition = composition_.Finalize(publisher_.name);
  a.hourly = hourly_.Finalize(publisher_.name);
  a.devices = devices_.Finalize(publisher_.name);
  a.sizes = sizes_.Finalize(publisher_.name);
  a.popularity = popularity_.Finalize(publisher_.name);
  a.aging = aging_.Finalize(publisher_.name);
  a.sessions = sessions_.Finalize(publisher_.name);
  a.engagement = engagement_.Finalize(publisher_.name);
  a.caching = caching_.Finalize(publisher_.name);
  if (video_series_) video_panel_ = video_series_->Finalize();
  if (image_series_) image_panel_ = image_series_->Finalize();
  return a;
}

void SiteAccumulator::ClusterTrends(SiteAnalysis& a, int threads) {
  if (!run_trend_clusters_) return;
  a.video_trends = ClusterTrendSeries(std::move(video_panel_), publisher_.name,
                                      video_trend_config_, threads);
  a.image_trends = ClusterTrendSeries(std::move(image_panel_), publisher_.name,
                                      image_trend_config_, threads);
}

namespace {
constexpr std::uint32_t kSiteAccumulatorStateVersion = 1;
constexpr std::uint32_t kStreamingAnalysisStateVersion = 1;
}  // namespace

void SiteAccumulator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kSiteAccumulatorStateVersion);
  w.WriteString(publisher_.name);
  w.WriteBool(run_trend_clusters_);
  w.WriteU64(records_);
  summary_.SaveState(w);
  composition_.SaveState(w);
  hourly_.SaveState(w);
  devices_.SaveState(w);
  sizes_.SaveState(w);
  popularity_.SaveState(w);
  aging_.SaveState(w);
  sessions_.SaveState(w);
  engagement_.SaveState(w);
  caching_.SaveState(w);
  if (run_trend_clusters_) {
    video_series_->SaveState(w);
    image_series_->SaveState(w);
  }
}

void SiteAccumulator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("site accumulator", kSiteAccumulatorStateVersion);
  const std::string saved_name = r.ReadString();
  if (saved_name != publisher_.name) {
    throw std::runtime_error("ckpt: site accumulator publisher mismatch "
                             "(checkpoint has '" +
                             saved_name + "', this run built '" +
                             publisher_.name + "')");
  }
  const bool saved_trends = r.ReadBool();
  if (saved_trends != run_trend_clusters_) {
    throw std::runtime_error(
        "ckpt: trend-cluster configuration mismatch (checkpoint was taken "
        "with run_trend_clusters " +
        std::string(saved_trends ? "on" : "off") + ")");
  }
  records_ = r.ReadU64();
  summary_.RestoreState(r);
  composition_.RestoreState(r);
  hourly_.RestoreState(r);
  devices_.RestoreState(r);
  sizes_.RestoreState(r);
  popularity_.RestoreState(r);
  aging_.RestoreState(r);
  sessions_.RestoreState(r);
  engagement_.RestoreState(r);
  caching_.RestoreState(r);
  if (run_trend_clusters_) {
    video_series_->RestoreState(r);
    image_series_->RestoreState(r);
  }
}

StreamingAnalysis::StreamingAnalysis(const trace::PublisherRegistry& registry,
                                     const SuiteConfig& config)
    : config_(config), publishers_(registry.all()) {
  pub_index_.reserve(publishers_.size());
  std::uint32_t max_id = 0;
  for (std::size_t i = 0; i < publishers_.size(); ++i) {
    pub_index_.InsertIfAbsent(publishers_[i].id, i);
    max_id = std::max(max_id, publishers_[i].id);
  }
  // Direct-indexed id table for the per-record hot path; only worth the
  // memory when the id space is small (registry ids are sequential).
  constexpr std::uint32_t kDenseIdLimit = 1u << 16;
  if (!publishers_.empty() && max_id < kDenseIdLimit) {
    dense_index_.assign(static_cast<std::size_t>(max_id) + 1, -1);
    for (std::size_t i = 0; i < publishers_.size(); ++i) {
      std::int32_t& slot = dense_index_[publishers_[i].id];
      if (slot < 0) slot = static_cast<std::int32_t>(i);
    }
  }
  accumulators_.resize(publishers_.size());
}

SiteAccumulator& StreamingAnalysis::AccumulatorFor(std::size_t index) {
  auto& acc = accumulators_[index];
  if (!acc) {
    acc = std::make_unique<SiteAccumulator>(publishers_[index], config_);
  }
  return *acc;
}

void StreamingAnalysis::AddBlock(const trace::RecordBlock& block,
                                 std::size_t first_row) {
  const std::size_t n = block.size();
  if (first_row >= n) return;
  records_consumed_ += n - first_row;

  if (first_row == 0) {
    // Fast path: single-publisher block (per-site traces, and long runs of
    // a merged trace) — hand the whole block down with no row indirection.
    const std::uint32_t first_pub = block.publisher_id[0];
    bool uniform = true;
    for (std::size_t i = 1; i < n; ++i) {
      if (block.publisher_id[i] != first_pub) {
        uniform = false;
        break;
      }
    }
    if (uniform) {
      if (const std::int64_t idx = IndexFor(first_pub); idx >= 0) {
        AccumulatorFor(static_cast<std::size_t>(idx)).AddBatch(block, nullptr,
                                                               n);
      }
      return;
    }
  }

  // Stable demux: per-publisher row-index lists preserve stream order
  // within each site, so each site folds its rows exactly as it would from
  // a single-publisher block. Unregistered publishers are counted by the
  // cursor above but not analyzed.
  if (demux_rows_.size() != publishers_.size()) {
    demux_rows_.assign(publishers_.size(), {});
  }
  touched_.clear();
  for (std::size_t i = first_row; i < n; ++i) {
    const std::int64_t found = IndexFor(block.publisher_id[i]);
    if (found < 0) continue;
    const auto idx = static_cast<std::size_t>(found);
    if (demux_rows_[idx].empty()) touched_.push_back(idx);
    demux_rows_[idx].push_back(static_cast<std::uint32_t>(i));
  }
  for (const std::size_t idx : touched_) {
    AccumulatorFor(idx).AddBatch(block, demux_rows_[idx].data(),
                                 demux_rows_[idx].size());
    demux_rows_[idx].clear();
  }
}

std::vector<SiteAnalysis> StreamingAnalysis::Finalize() {
  // Phase 1: every accumulator except trend clustering (Ecdf sorts, series
  // building), one site per worker into a dedicated slot. With trends off
  // this is all of finalization.
  std::vector<std::optional<SiteAnalysis>> slots(publishers_.size());
  util::ParallelFor(
      publishers_.size(),
      [&](std::size_t i) {
        if (accumulators_[i]) slots[i] = accumulators_[i]->Finalize();
      },
      config_.threads);
  // Phase 2: one trend panel at a time, in registry order, each spreading
  // its pairwise DTW over every worker. Run inside phase 1, a site's panels
  // would sit on that site's one worker.
  std::vector<SiteAnalysis> sites;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]) continue;
    accumulators_[i]->ClusterTrends(*slots[i], config_.threads);
    sites.push_back(std::move(*slots[i]));
  }
  return sites;
}

void StreamingAnalysis::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kStreamingAnalysisStateVersion);
  w.WriteU64(records_consumed_);
  w.WriteU64(static_cast<std::uint64_t>(publishers_.size()));
  for (std::size_t i = 0; i < publishers_.size(); ++i) {
    w.WriteBool(accumulators_[i] != nullptr);
    if (accumulators_[i]) accumulators_[i]->SaveState(w);
  }
}

void StreamingAnalysis::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("streaming analysis", kStreamingAnalysisStateVersion);
  records_consumed_ = r.ReadU64();
  const std::uint64_t n = r.ReadU64();
  if (n != publishers_.size()) {
    throw std::runtime_error(
        "ckpt: publisher count mismatch (checkpoint has " +
        std::to_string(n) + " publishers, registry has " +
        std::to_string(publishers_.size()) + ")");
  }
  for (std::size_t i = 0; i < publishers_.size(); ++i) {
    if (!r.ReadBool()) {
      accumulators_[i].reset();
      continue;
    }
    accumulators_[i] =
        std::make_unique<SiteAccumulator>(publishers_[i], config_);
    accumulators_[i]->RestoreState(r);
  }
}

AnalysisSuite::AnalysisSuite(trace::BlockSource& source,
                             const trace::PublisherRegistry& registry,
                             const SuiteConfig& config) {
  // One sequential demultiplexing pass feeds a per-publisher accumulator
  // set; accumulation order is the stream order regardless of thread
  // count, so the suite is deterministic by construction.
  StreamingAnalysis stream(registry, config);
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    stream.AddBlock(*block);
  }
  sites_ = stream.Finalize();
}

const SiteAnalysis& AnalysisSuite::site(const std::string& name) const {
  for (const auto& s : sites_) {
    if (s.site == name) return s;
  }
  throw std::out_of_range("AnalysisSuite: unknown site " + name);
}

void AnalysisSuite::Render(std::ostream& out) const {
  std::vector<DatasetSummary> summaries;
  std::vector<CompositionResult> compositions;
  std::vector<HourlyVolume> hourly;
  std::vector<DeviceComposition> devices;
  std::vector<SizeDistributions> sizes;
  std::vector<PopularityResult> popularity;
  std::vector<AgingResult> aging;
  std::vector<SessionResult> sessions;
  std::vector<EngagementResult> engagement;
  std::vector<CachingResult> caching;
  for (const auto& s : sites_) {
    summaries.push_back(s.summary);
    compositions.push_back(s.composition);
    hourly.push_back(s.hourly);
    devices.push_back(s.devices);
    sizes.push_back(s.sizes);
    popularity.push_back(s.popularity);
    aging.push_back(s.aging);
    sessions.push_back(s.sessions);
    engagement.push_back(s.engagement);
    caching.push_back(s.caching);
  }

  out << "=== Dataset summary (paper SS III) ===\n";
  RenderDatasetSummaries(summaries, out);
  out << "\n=== Fig. 1: content composition ===\n";
  RenderContentComposition(compositions, out);
  out << "\n=== Fig. 2: traffic composition ===\n";
  RenderTrafficComposition(compositions, out);
  out << "\n=== Fig. 3: hourly traffic volume (local time, % of weekly) ===\n";
  RenderHourlyVolume(hourly, out);
  out << "\n=== Fig. 4: device type composition ===\n";
  RenderDeviceComposition(devices, out);
  out << "\n=== Fig. 5: content size distributions ===\n";
  RenderSizeDistributions(sizes, out);
  out << "\n=== Fig. 6: content popularity ===\n";
  RenderPopularity(popularity, out);
  out << "\n=== Fig. 7: content aging ===\n";
  RenderAging(aging, out);
  for (const auto& s : sites_) {
    if (s.video_trends && s.video_trends->clustered_objects >= 2) {
      out << "\n=== Figs. 8-9: " << s.site << " video popularity trends ===\n";
      RenderTrendClusters(*s.video_trends, out);
      RenderClusterMedoids(*s.video_trends, out);
    }
    if (s.image_trends && s.image_trends->clustered_objects >= 2) {
      out << "\n=== Figs. 8,10: " << s.site << " image popularity trends ===\n";
      RenderTrendClusters(*s.image_trends, out);
      RenderClusterMedoids(*s.image_trends, out);
    }
  }
  out << "\n=== Figs. 11-12: sessions ===\n";
  RenderSessions(sessions, out);
  out << "\n=== Figs. 13-14: engagement & addiction ===\n";
  for (const auto& e : engagement) {
    RenderRepeatedAccess(e, out);
    out << '\n';
  }
  RenderEngagement(engagement, out);
  out << "\n=== Fig. 15: CDN cache hit ratios ===\n";
  RenderCaching(caching, out);
  out << "\n=== Fig. 16: HTTP response codes ===\n";
  RenderResponseCodes(caching, out);
}

}  // namespace atlas::analysis
