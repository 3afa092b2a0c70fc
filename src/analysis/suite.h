// AnalysisSuite: run the paper's entire analysis over a multi-site trace.
//
// The one-call public API: hand it the (merged or per-site) trace plus the
// publisher registry and it computes every per-site result the figures
// need; Render() prints the full report in paper order.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/aging.h"
#include "analysis/caching.h"
#include "analysis/composition.h"
#include "analysis/devices.h"
#include "analysis/engagement.h"
#include "analysis/popularity.h"
#include "analysis/sessions.h"
#include "analysis/sizes.h"
#include "analysis/temporal.h"
#include "analysis/trend_cluster.h"
#include "trace/block.h"
#include "trace/publisher.h"
#include "trace/stream.h"
#include "util/flat_hash.h"
#include "util/par.h"

namespace atlas::analysis {

struct SuiteConfig {
  // Trend clustering is O(n^2)-O(n^3); disable for huge traces or tests
  // that don't need Figs. 8-10.
  bool run_trend_clusters = true;
  TrendClusterConfig trend;
  // Worker threads for the analysis; <= 0 means util::DefaultThreads().
  // Each block's (site, accumulator) pairs run as tasks on that many
  // workers, the sites are finalized concurrently, each into its own result
  // slot, and then each trend panel's DTW runs on all of them. Every
  // accumulator still folds its rows in stream order, so every result is
  // identical at any thread count, and so is the rendered report.
  int threads = 0;
};

struct SiteAnalysis {
  std::string site;
  trace::SiteKind kind = trace::SiteKind::kNonAdult;
  DatasetSummary summary;
  CompositionResult composition;
  HourlyVolume hourly;
  DeviceComposition devices;
  SizeDistributions sizes;
  PopularityResult popularity;
  AgingResult aging;
  SessionResult sessions;
  EngagementResult engagement;
  CachingResult caching;
  // Only when SuiteConfig.run_trend_clusters; video panel first.
  std::optional<TrendClusterResult> video_trends;
  std::optional<TrendClusterResult> image_trends;
};

// Every per-site analysis folded into one single-pass consumer: feed it a
// site's records (in trace order) and Finalize into the SiteAnalysis the
// report renders. This is the unit the streaming suite demultiplexes a
// block stream into. Most aggregate state is O(users + objects + pairs);
// the exception is the sessions accumulator's inter-arrival sample, one
// double per same-user gap, which is O(records).
class SiteAccumulator {
 public:
  // The sub-accumulators, numbered 0..kParts-1 in AddPart's order (the two
  // trend-series parts are no-ops with trends off). No part reads
  // another's state, so different parts may be fed concurrently.
  static constexpr std::size_t kParts = 12;

  SiteAccumulator(const trace::Publisher& publisher,
                  const SuiteConfig& config);
  // Counts n rows toward records(); the caller then hands the same rows to
  // every part.
  void CountRows(std::size_t n) { records_ += n; }
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in stream
  // order, handed to part `part` alone. Each part must get every batch, in
  // stream order; different parts may run on different threads.
  void AddPart(std::size_t part, const trace::RecordBlock& b,
               const std::uint32_t* rows, std::size_t n);
  // Finalizes every sub-accumulator, the trend series included, but leaves
  // the trend panels unclustered: ClusterTrends does that afterwards, so
  // that each panel's DTW can use every worker. Call at most once; the
  // accumulators are consumed, and all but the trend series release their
  // state as soon as their result is built.
  SiteAnalysis Finalize();
  // Clusters the video, then the image panel that Finalize built into `a`,
  // each panel's pairwise DTW on `threads` workers. No-op with trends off.
  void ClusterTrends(SiteAnalysis& a, int threads);

 private:
  trace::Publisher publisher_;
  bool run_trend_clusters_;
  TrendClusterConfig video_trend_config_;
  TrendClusterConfig image_trend_config_;
  std::uint64_t records_ = 0;

  DatasetSummaryAccumulator summary_;
  CompositionAccumulator composition_;
  HourlyVolumeAccumulator hourly_;
  DeviceCompositionAccumulator devices_;
  SizeDistributionsAccumulator sizes_;
  PopularityAccumulator popularity_;
  AgingAccumulator aging_;
  SessionAccumulator sessions_;
  EngagementAccumulator engagement_;
  CachingAccumulator caching_;
  std::optional<TrendSeriesAccumulator> video_series_;
  std::optional<TrendSeriesAccumulator> image_series_;
  // Panels Finalize built, waiting for ClusterTrends.
  std::vector<std::pair<std::uint64_t, std::vector<double>>> video_panel_;
  std::vector<std::pair<std::uint64_t, std::vector<double>>> image_panel_;
};

// The core of the streaming suite: demultiplexes a block stream into one
// SiteAccumulator per registered publisher and counts the records it has
// consumed. AnalysisSuite drives one to completion from a BlockSource;
// callers that read blocks themselves (`atlas-trace analyze`, atlas-bench)
// feed them here one at a time and finalize at the end.
class StreamingAnalysis {
 public:
  // The registry reference must outlive the analysis.
  StreamingAnalysis(const trace::PublisherRegistry& registry,
                    const SuiteConfig& config = {});

  // Consumes every row of `block`. The calling thread demultiplexes the
  // rows into per-site lists that preserve stream order, then every (site,
  // part) pair runs as one task on the analysis pool, so each accumulator
  // folds its rows in stream order and the results depend on neither block
  // size nor thread count. If tasks throw, the one with the lowest (site,
  // part) index is rethrown — the failure a serial run would raise.
  void AddBlock(const trace::RecordBlock& block);

  // Records consumed so far, including ones from unregistered publishers,
  // which are counted but not analyzed.
  std::uint64_t records_consumed() const { return records_consumed_; }

  // Finalizes in two phases, both on SuiteConfig::threads workers: the
  // sites in parallel on the analysis pool, one per task, then each trend
  // panel in turn (registry order, video before image) with its DTW across
  // every worker. Results come back in registry order. Call at most once;
  // the accumulators are consumed.
  std::vector<SiteAnalysis> Finalize();

 private:
  SiteAccumulator& AccumulatorFor(std::size_t index);

  // Runs fn(0..n) as tasks on the analysis pool, which is created on first
  // use and lives as long as the analysis. Runs them inline in index order
  // instead when the resolved thread count is 1, when n is 1, or from
  // inside a parallel region. Either way the lowest failing task's
  // exception is rethrown (util::ThreadPool::Run), so a failure does not
  // depend on scheduling.
  void RunTasks(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Accumulator index for a publisher id, or -1 if unregistered. Registry
  // ids are small and dense in practice, so the hot paths resolve through a
  // direct-indexed table; pub_index_ stays as the fallback for sparse or
  // large id spaces. Both honor keep-first on duplicate ids.
  std::int64_t IndexFor(std::uint32_t publisher_id) const {
    if (!dense_index_.empty()) {
      return publisher_id < dense_index_.size() ? dense_index_[publisher_id]
                                                : -1;
    }
    const std::size_t* idx = pub_index_.Find(publisher_id);
    return idx ? static_cast<std::int64_t>(*idx) : -1;
  }

  SuiteConfig config_;
  std::vector<trace::Publisher> publishers_;
  util::FlatHashMap<std::uint32_t, std::size_t> pub_index_;
  std::vector<std::int32_t> dense_index_;
  std::vector<std::unique_ptr<SiteAccumulator>> accumulators_;
  std::uint64_t records_consumed_ = 0;
  // Per-publisher row-index scratch for demultiplexing mixed blocks
  // (cleared after every block; kept here to reuse capacity).
  std::vector<std::vector<std::uint32_t>> demux_rows_;
  std::vector<std::size_t> touched_;
  // One block's per-site row lists, in the order the sites first appear in
  // it: the sites of AddBlock's (site, part) tasks.
  struct SiteBatch {
    SiteAccumulator* acc;
    const std::uint32_t* rows;  // null: every row of the block
    std::size_t n;
  };
  std::vector<SiteBatch> batches_;
  std::unique_ptr<util::ThreadPool> pool_;
};

class AnalysisSuite {
 public:
  // Single-pass streaming analysis: demultiplexes `source` (which must
  // yield records in non-decreasing timestamp order, as TraceWriter files
  // and merged scenario traces do) block by block into one SiteAccumulator
  // per registered publisher, then finalizes sites in parallel. Peak
  // memory is the accumulator state plus one block; apart from the
  // sessions IAT sample, that state grows with the population, not the
  // trace length. An in-memory trace goes in through
  // trace::BufferBlockSource.
  AnalysisSuite(trace::BlockSource& source,
                const trace::PublisherRegistry& registry,
                const SuiteConfig& config = {});

  // Wraps already-finalized per-site results — the hand-off from a
  // StreamingAnalysis driven block by block to the report renderer.
  explicit AnalysisSuite(std::vector<SiteAnalysis> sites)
      : sites_(std::move(sites)) {}

  const std::vector<SiteAnalysis>& sites() const { return sites_; }
  const SiteAnalysis& site(const std::string& name) const;

  // Full paper-order report.
  void Render(std::ostream& out) const;

 private:
  std::vector<SiteAnalysis> sites_;
};

}  // namespace atlas::analysis
