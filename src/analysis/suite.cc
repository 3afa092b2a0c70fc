#include "analysis/suite.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

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

void SiteAccumulator::AddPart(std::size_t part, const trace::RecordBlock& b,
                              const std::uint32_t* rows, std::size_t n) {
  switch (part) {
    case 0: summary_.AddBatch(b, rows, n); break;
    case 1: composition_.AddBatch(b, rows, n); break;
    case 2: hourly_.AddBatch(b, rows, n); break;
    case 3: devices_.AddBatch(b, rows, n); break;
    case 4: sizes_.AddBatch(b, rows, n); break;
    case 5: popularity_.AddBatch(b, rows, n); break;
    case 6: aging_.AddBatch(b, rows, n); break;
    case 7: sessions_.AddBatch(b, rows, n); break;
    case 8: engagement_.AddBatch(b, rows, n); break;
    case 9: caching_.AddBatch(b, rows, n); break;
    case 10: if (video_series_) video_series_->AddBatch(b, rows, n); break;
    case 11: if (image_series_) image_series_->AddBatch(b, rows, n); break;
    default: throw std::out_of_range("SiteAccumulator: no part " +
                                     std::to_string(part));
  }
}

namespace {

// Finalizes `acc` into its result, then releases the accumulator's tables:
// Finalize consumes the accumulators, so their state need not outlive the
// results built from it (the report is rendered while the analysis lives).
template <typename Accumulator>
auto Consume(Accumulator& acc, const std::string& site) {
  auto result = acc.Finalize(site);
  acc = Accumulator();
  return result;
}

}  // namespace

SiteAnalysis SiteAccumulator::Finalize() {
  ATLAS_LOG(kInfo) << "analyzing " << publisher_.name << " (" << records_
                   << " records)";
  const std::string& name = publisher_.name;
  SiteAnalysis a;
  a.site = name;
  a.kind = publisher_.kind;
  a.summary = Consume(summary_, name);
  a.composition = Consume(composition_, name);
  a.hourly = Consume(hourly_, name);
  a.devices = Consume(devices_, name);
  a.sizes = Consume(sizes_, name);
  a.popularity = Consume(popularity_, name);
  a.aging = Consume(aging_, name);
  a.sessions = Consume(sessions_, name);
  a.engagement = Consume(engagement_, name);
  a.caching = Consume(caching_, name);
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

void StreamingAnalysis::RunTasks(std::size_t n,
                                 const std::function<void(std::size_t)>& fn) {
  if (n <= 1 || util::ResolveThreads(config_.threads) <= 1 ||
      util::InParallelRegion()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  pool_->Run(n, fn);
}

void StreamingAnalysis::AddBlock(const trace::RecordBlock& block) {
  const std::size_t n = block.size();
  if (n == 0) return;
  records_consumed_ += n;

  batches_.clear();
  // Fast path: single-publisher block (per-site traces, and long runs of a
  // merged trace) — hand the whole block down with no row indirection.
  const std::uint32_t first_pub = block.publisher_id[0];
  bool uniform = true;
  for (std::size_t i = 1; i < n && uniform; ++i) {
    uniform = block.publisher_id[i] == first_pub;
  }
  if (uniform) {
    if (const std::int64_t idx = IndexFor(first_pub); idx >= 0) {
      batches_.push_back(
          {&AccumulatorFor(static_cast<std::size_t>(idx)), nullptr, n});
    }
  } else {
    // Stable demux: per-publisher row-index lists preserve stream order
    // within each site, so each site folds its rows exactly as it would
    // from a single-publisher block. Unregistered publishers are counted
    // above but not analyzed.
    if (demux_rows_.size() != publishers_.size()) {
      demux_rows_.assign(publishers_.size(), {});
    }
    touched_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t found = IndexFor(block.publisher_id[i]);
      if (found < 0) continue;
      const auto idx = static_cast<std::size_t>(found);
      if (demux_rows_[idx].empty()) touched_.push_back(idx);
      demux_rows_[idx].push_back(static_cast<std::uint32_t>(i));
    }
    for (const std::size_t idx : touched_) {
      batches_.push_back({&AccumulatorFor(idx), demux_rows_[idx].data(),
                          demux_rows_[idx].size()});
    }
  }
  for (const SiteBatch& batch : batches_) batch.acc->CountRows(batch.n);

  // One task per (site, part): each part of each site gets this block's
  // rows from exactly one task, so its fold order is the stream order.
  constexpr std::size_t kParts = SiteAccumulator::kParts;
  RunTasks(batches_.size() * kParts, [&](std::size_t t) {
    const SiteBatch& batch = batches_[t / kParts];
    batch.acc->AddPart(t % kParts, block, batch.rows, batch.n);
  });
  if (!uniform) {
    for (const std::size_t idx : touched_) demux_rows_[idx].clear();
  }
}

std::vector<SiteAnalysis> StreamingAnalysis::Finalize() {
  // Phase 1: every accumulator except trend clustering (Ecdf sorts, series
  // building), one site per task into a dedicated slot. With trends off
  // this is all of finalization.
  std::vector<std::optional<SiteAnalysis>> slots(publishers_.size());
  RunTasks(publishers_.size(), [&](std::size_t i) {
    if (accumulators_[i]) slots[i] = accumulators_[i]->Finalize();
  });
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

namespace {

// One site-result field of every site, as the view the Render* functions
// take; points into `sites`, so nothing is copied.
template <typename T>
std::vector<const T*> Column(const std::vector<SiteAnalysis>& sites,
                             T SiteAnalysis::*field) {
  std::vector<const T*> column;
  column.reserve(sites.size());
  for (const auto& s : sites) column.push_back(&(s.*field));
  return column;
}

}  // namespace

void AnalysisSuite::Render(std::ostream& out) const {
  const auto compositions = Column(sites_, &SiteAnalysis::composition);
  const auto caching = Column(sites_, &SiteAnalysis::caching);

  out << "=== Dataset summary (paper SS III) ===\n";
  RenderDatasetSummaries(Column(sites_, &SiteAnalysis::summary), out);
  out << "\n=== Fig. 1: content composition ===\n";
  RenderContentComposition(compositions, out);
  out << "\n=== Fig. 2: traffic composition ===\n";
  RenderTrafficComposition(compositions, out);
  out << "\n=== Fig. 3: hourly traffic volume (local time, % of weekly) ===\n";
  RenderHourlyVolume(Column(sites_, &SiteAnalysis::hourly), out);
  out << "\n=== Fig. 4: device type composition ===\n";
  RenderDeviceComposition(Column(sites_, &SiteAnalysis::devices), out);
  out << "\n=== Fig. 5: content size distributions ===\n";
  RenderSizeDistributions(Column(sites_, &SiteAnalysis::sizes), out);
  out << "\n=== Fig. 6: content popularity ===\n";
  RenderPopularity(Column(sites_, &SiteAnalysis::popularity), out);
  out << "\n=== Fig. 7: content aging ===\n";
  RenderAging(Column(sites_, &SiteAnalysis::aging), out);
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
  RenderSessions(Column(sites_, &SiteAnalysis::sessions), out);
  out << "\n=== Figs. 13-14: engagement & addiction ===\n";
  for (const auto& s : sites_) {
    RenderRepeatedAccess(s.engagement, out);
    out << '\n';
  }
  RenderEngagement(Column(sites_, &SiteAnalysis::engagement), out);
  out << "\n=== Fig. 15: CDN cache hit ratios ===\n";
  RenderCaching(caching, out);
  out << "\n=== Fig. 16: HTTP response codes ===\n";
  RenderResponseCodes(caching, out);
}

}  // namespace atlas::analysis
