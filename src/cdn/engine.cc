#include "cdn/engine.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cdn/browser_cache.h"
#include "cdn/chunking.h"
#include "cdn/push.h"
#include "ckpt/checkpoint.h"
#include "trace/content_class.h"
#include "trace/wire_format.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/par.h"
#include "util/time.h"

namespace atlas::cdn {
namespace {

constexpr std::size_t kMergeBatchRecords = 8192;

// Checkpoint section layouts ("engine.meta" + one "engine.shard.<i>" each).
constexpr std::uint32_t kEngineMetaVersion = 1;
// v2: adds the cache-flush cursor and the pre-flush stats accumulator.
constexpr std::uint32_t kEngineShardVersion = 2;
// Encoded size of one pending record: its length-prefixed wire bytes, then
// event_seq and sub_seq.
constexpr std::size_t kPendingRecordBytes =
    8 + trace::wire::kRecordWireSize + 8 + 4;

// A record plus its provenance. The sequential simulator appended records
// in (event order, chunk order) and then ran a *stable* sort on timestamp,
// so its output order is exactly (timestamp, event_seq, sub_seq); the
// merged scenario trace concatenated sites in registration order before
// the stable sort, i.e. (timestamp, site, event_seq, sub_seq). Tagging
// every record with that provenance lets shards emit in any decomposition
// and still merge back to the identical byte stream.
struct TaggedRecord {
  trace::LogRecord rec;
  std::uint64_t event_seq = 0;  // index into the site's event vector
  std::uint32_t sub_seq = 0;    // chunk index within the event
};

bool TagLess(const TaggedRecord& a, const TaggedRecord& b) {
  if (a.rec.timestamp_ms != b.rec.timestamp_ms) {
    return a.rec.timestamp_ms < b.rec.timestamp_ms;
  }
  if (a.event_seq != b.event_seq) return a.event_seq < b.event_seq;
  return a.sub_seq < b.sub_seq;
}

trace::LogRecord BaseRecord(const synth::RequestEvent& ev,
                            const synth::UserInfo& user,
                            const synth::ObjectMeta& obj,
                            std::uint32_t publisher_id) {
  trace::LogRecord rec;
  rec.timestamp_ms = ev.timestamp_ms;
  rec.url_hash = obj.url_hash;
  rec.user_id = user.user_id;
  rec.object_size = obj.size_bytes;
  rec.publisher_id = publisher_id;
  rec.user_agent_id = user.user_agent_id;
  rec.file_type = obj.file_type;
  rec.tz_offset_quarter_hours = user.tz_offset_quarter_hours;
  return rec;
}

// One (site, DC) shard. Everything mutable here is touched by exactly one
// worker at a time; the only cross-shard reads during an epoch are the
// immutable `snapshot` vectors of sibling shards, rebuilt at barriers.
struct Shard {
  std::size_t site = 0;
  std::size_t dc = 0;
  std::unique_ptr<Cache> cache;
  std::unordered_map<std::uint32_t, BrowserCache> browsers;
  // Every entry of `browsers` as (user index, cache), appended as each is
  // created; a save sorts it in place. Map nodes never move, so neither do
  // the pointers, and a save walks the browsers in key order with no pass
  // over the map's scattered nodes.
  std::vector<std::pair<std::uint32_t, const BrowserCache*>> browser_order;
  // Indices (ascending) into the site's event vector of the events whose
  // user routes to this DC.
  std::vector<std::uint64_t> event_indices;
  std::size_t next_event = 0;
  // Private cursor into the site's shared push plan: push writes to every
  // DC independently, so each shard applies the plan to its own cache.
  std::size_t push_cursor = 0;
  // Private cursor into this DC's flush schedule (op_events), interleaved
  // with the push plan in time order.
  std::size_t flush_cursor = 0;
  // Stats of cache generations dropped by flushes: the counters survive a
  // wipe (an operational flush is not an eviction storm), so reporting
  // merges this with the live cache's stats.
  CacheStats flushed_stats;
  std::vector<TaggedRecord> pending;    // records not yet past a barrier
  std::vector<TaggedRecord> finalized;  // this epoch's merge input, sorted
  // Keys resident in `cache` at the last epoch boundary, sorted.
  std::vector<std::uint64_t> snapshot;
  // Per-shard counters, folded into the site's SimulatorResult at the end.
  OriginStats origin;
  std::uint64_t records = 0;
  std::uint64_t peer_fetches = 0;
  std::uint64_t peer_bytes = 0;
  std::uint64_t browser_fresh_hits = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t pushed_bytes = 0;
};

// Cumulative per-shard delivery totals at the last observed barrier; the
// epoch observer reports deltas against these. Derived state only — it is
// re-synced from the shards after a checkpoint restore, never serialized.
struct ShardTotals {
  CacheStats edge;
  OriginStats origin;
  std::uint64_t peer_fetches = 0;
  std::uint64_t peer_bytes = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t pushed_bytes = 0;
};

ShardTotals CurrentTotals(const Shard& sh) {
  ShardTotals t;
  t.edge = sh.flushed_stats;  // generations dropped by flushes still count
  t.edge.Merge(sh.cache->stats());
  t.origin = sh.origin;
  t.peer_fetches = sh.peer_fetches;
  t.peer_bytes = sh.peer_bytes;
  t.revalidations = sh.revalidations;
  t.pushed_bytes = sh.pushed_bytes;
  return t;
}

class Engine {
 public:
  Engine(std::span<const SiteJob> jobs, const SimulatorConfig& config,
         trace::RecordSink& sink, int threads,
         const CheckpointOptions& opts)
      : jobs_(jobs), config_(config), sink_(sink), opts_(opts) {
    if (opts_.every_epochs > 0 && opts_.path.empty()) {
      throw std::invalid_argument(
          "RunSharded: checkpointing enabled without a path");
    }
    if (config.playback_bytes_per_s <= 0.0) {
      throw std::invalid_argument("Simulator: playback rate must be > 0");
    }
    if (config.epoch_ms <= 0) {
      throw std::invalid_argument("Simulator: epoch_ms must be > 0");
    }
    if (config.topology.dcs_per_continent <= 0) {
      throw std::invalid_argument("Topology: dcs_per_continent must be > 0");
    }
    threads_ = util::ResolveThreads(threads);
    dcs_per_site_ = DcCount(config.topology);
    Validate();
    BuildShards();
  }

  std::vector<SimulatorResult> Run();

 private:
  Shard& shard(std::size_t site, std::size_t dc) {
    return shards_[site * dcs_per_site_ + dc];
  }

  void Validate() const;
  void BuildShards();
  void ForEachShard(const std::function<void(std::size_t)>& fn);
  void ProcessEpoch(Shard& shard, std::int64_t epoch_end_ms, bool last);
  void ProcessEvent(Shard& shard, std::uint64_t event_seq);
  void ApplyOpsUpTo(Shard& shard, std::int64_t now_ms);
  void ApplyOnePush(Shard& shard);
  void FlushCache(Shard& shard);
  bool DcDown(std::size_t dc, std::int64_t t) const;
  std::size_t RouteForTime(std::size_t home_dc, std::int64_t t) const;
  void Fill(Shard& shard, std::uint64_t key, std::uint64_t bytes);
  BrowserCache& BrowserFor(Shard& shard, std::uint32_t user_index);
  void MergeFinalized();
  void RebuildSnapshots();
  // Fires config_.epoch_observer with this barrier's per-DC deltas. Runs
  // serially on the coordinating thread after MergeFinalized and before
  // SaveCheckpoint, so observer state can join the same atomic commit.
  void NotifyObserver(std::int64_t epoch_end);
  // Re-bases the observer's delta baselines on the shards' current
  // counters (used after a checkpoint restore: already-reported activity
  // must not be re-reported on resume).
  void SyncObserverBaseline();
  std::vector<SimulatorResult> Assemble() const;

  // Digest of everything a checkpoint assumes immutable: job identities,
  // event counts, and every config knob that shapes the record stream.
  std::uint64_t Fingerprint() const;
  void SaveCheckpoint(std::int64_t epoch_end, std::uint64_t barriers_done);
  void SaveShard(ckpt::Writer& w, Shard& sh);
  // Returns the epoch_end of the barrier the checkpoint was taken at and
  // the barriers completed; shard state is overwritten in place.
  void RestoreFromCheckpoint(ckpt::Reader& r, std::int64_t* epoch_end,
                             std::uint64_t* barriers_done);
  void RestoreShard(ckpt::Reader& r, Shard& sh);

  std::span<const SiteJob> jobs_;
  const SimulatorConfig& config_;
  trace::RecordSink& sink_;
  const CheckpointOptions& opts_;
  int threads_ = 1;
  std::size_t dcs_per_site_ = 0;
  std::vector<Shard> shards_;
  // Per-shard totals at the last observed barrier (empty when no observer).
  std::vector<ShardTotals> observer_prev_;
  std::vector<std::vector<PushItem>> push_plans_;  // per site
  // Sorted flush instants per DC, expanded from config_.op_events.
  std::vector<std::vector<std::int64_t>> dc_flush_times_;
  bool has_outages_ = false;
  std::vector<trace::LogRecord> batch_;            // merge output staging
  std::unique_ptr<util::ThreadPool> pool_;
};

std::vector<SimulatorResult> Engine::Run() {
  if (threads_ > 1 && shards_.size() > 1 && !util::InParallelRegion()) {
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(threads_), shards_.size())));
  }
  std::int64_t min_ts = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ts = std::numeric_limits<std::int64_t>::min();
  for (const auto& job : jobs_) {
    if (!job.events->empty()) {
      min_ts = std::min(min_ts, job.events->front().timestamp_ms);
      max_ts = std::max(max_ts, job.events->back().timestamp_ms);
    }
  }
  // Epoch boundaries are fixed multiples of epoch_ms — a pure function of
  // the workload and config, never of thread count. Leading empty epochs
  // are skipped (caches are empty, so their snapshots would be too).
  std::int64_t epoch_end =
      max_ts == std::numeric_limits<std::int64_t>::min()
          ? std::numeric_limits<std::int64_t>::max()
          : (min_ts / config_.epoch_ms + 1) * config_.epoch_ms;
  std::uint64_t barriers_done = 0;
  if (opts_.resume != nullptr) {
    // Mutable state comes back from the snapshot; the boundary schedule is
    // recomputed identically (it is a pure function of the workload), and
    // the run continues with the epoch after the checkpointed barrier.
    std::int64_t saved_epoch_end = 0;
    RestoreFromCheckpoint(*opts_.resume, &saved_epoch_end, &barriers_done);
    epoch_end = saved_epoch_end + config_.epoch_ms;
    SyncObserverBaseline();
  }
  for (;;) {
    const bool last = epoch_end > max_ts;
    const std::int64_t bound =
        last ? std::numeric_limits<std::int64_t>::max() : epoch_end;
    ForEachShard(
        [&](std::size_t i) { ProcessEpoch(shards_[i], bound, last); });
    MergeFinalized();
    NotifyObserver(epoch_end);
    if (last) break;
    if (config_.peer_fill) RebuildSnapshots();
    ++barriers_done;
    if (opts_.every_epochs > 0 && barriers_done % opts_.every_epochs == 0) {
      SaveCheckpoint(epoch_end, barriers_done);
      if (opts_.after_save && !opts_.after_save(barriers_done)) {
        // In-process "kill": stop here. Partial results; a resumed run
        // picks up from the snapshot just committed.
        pool_.reset();
        return Assemble();
      }
    }
    epoch_end += config_.epoch_ms;
  }
  pool_.reset();
  return Assemble();
}

std::uint64_t Engine::Fingerprint() const {
  std::uint64_t h = util::Fnv1a64("atlas.engine.v1");
  h = util::HashCombine(h, static_cast<std::uint64_t>(jobs_.size()));
  h = util::HashCombine(h, static_cast<std::uint64_t>(dcs_per_site_));
  for (const auto& job : jobs_) {
    h = util::HashCombine(h, job.generator->Fingerprint());
    h = util::HashCombine(h, job.publisher_id);
    h = util::HashCombine(h, static_cast<std::uint64_t>(job.events->size()));
  }
  h = util::HashCombine(h, static_cast<std::uint64_t>(config_.epoch_ms));
  h = util::HashCombine(h, config_.chunk_bytes);
  std::uint64_t playback_bits = 0;
  static_assert(sizeof(playback_bits) == sizeof(config_.playback_bytes_per_s));
  std::memcpy(&playback_bits, &config_.playback_bytes_per_s,
              sizeof(playback_bits));
  h = util::HashCombine(h, playback_bits);
  h = util::HashCombine(h, config_.browser_capacity_bytes);
  h = util::HashCombine(h, static_cast<std::uint64_t>(config_.browser_freshness_ms));
  h = util::HashCombine(h, config_.browser_max_object_bytes);
  h = util::HashCombine(h, config_.peer_fill ? 1 : 0);
  h = util::HashCombine(h, config_.push.enabled ? 1 : 0);
  h = util::HashCombine(h, static_cast<std::uint64_t>(config_.push.top_n));
  const std::uint64_t push_pattern_bits =
      (config_.push.include_diurnal ? 1u : 0u) |
      (config_.push.include_long_lived ? 2u : 0u) |
      (config_.push.include_short_lived ? 4u : 0u) |
      (config_.push.include_flash ? 8u : 0u) |
      (config_.push.include_outlier ? 16u : 0u);
  h = util::HashCombine(h, push_pattern_bits);
  h = util::HashCombine(h, config_.push.video_prefix_chunks);
  h = util::HashCombine(h,
                        static_cast<std::uint64_t>(config_.topology.edge_policy));
  h = util::HashCombine(h, config_.topology.edge_capacity_bytes);
  h = util::HashCombine(h, static_cast<std::uint64_t>(config_.topology.edge_ttl_ms));
  h = util::HashCombine(
      h, static_cast<std::uint64_t>(config_.topology.dcs_per_continent));
  // Operational events re-route and wipe caches, so they shape the record
  // stream exactly like any other config knob.
  h = util::HashCombine(h, static_cast<std::uint64_t>(config_.op_events.size()));
  for (const OpEvent& e : config_.op_events) {
    h = util::HashCombine(h, static_cast<std::uint64_t>(e.kind));
    h = util::HashCombine(h, static_cast<std::uint64_t>(e.start_ms));
    h = util::HashCombine(h, static_cast<std::uint64_t>(e.end_ms));
    h = util::HashCombine(h, static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(e.dc)));
  }
  for (const auto& plan : push_plans_) {
    h = util::HashCombine(h, static_cast<std::uint64_t>(plan.size()));
  }
  return h;
}

void Engine::SaveShard(ckpt::Writer& w, Shard& sh) {
  w.WriteU64(static_cast<std::uint64_t>(sh.next_event));
  w.WriteU64(static_cast<std::uint64_t>(sh.push_cursor));
  w.WriteU64(static_cast<std::uint64_t>(sh.flush_cursor));
  w.WriteU64(sh.flushed_stats.hits);
  w.WriteU64(sh.flushed_stats.misses);
  w.WriteU64(sh.flushed_stats.inserts);
  w.WriteU64(sh.flushed_stats.evictions);
  w.WriteU64(sh.flushed_stats.rejected);
  w.WriteU64(sh.flushed_stats.hit_bytes);
  w.WriteU64(sh.flushed_stats.miss_bytes);
  w.WriteU64(sh.origin.fetches);
  w.WriteU64(sh.origin.bytes);
  w.WriteU64(sh.records);
  w.WriteU64(sh.peer_fetches);
  w.WriteU64(sh.peer_bytes);
  w.WriteU64(sh.browser_fresh_hits);
  w.WriteU64(sh.revalidations);
  w.WriteU64(sh.pushed_bytes);
  sh.cache->SaveState(w);
  // Browser caches, keyed by user index; sorted so the section bytes are a
  // pure function of state, not of hash-table layout.
  std::sort(sh.browser_order.begin(), sh.browser_order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.WriteU64(static_cast<std::uint64_t>(sh.browser_order.size()));
  for (const auto& [user_index, browser] : sh.browser_order) {
    w.WriteU32(user_index);
    browser->SaveState(w);
  }
  // Records emitted but not yet past a barrier (timestamps >= the
  // checkpointed boundary). `finalized` is always merged by save time.
  w.WriteU64(static_cast<std::uint64_t>(sh.pending.size()));
  for (const TaggedRecord& tr : sh.pending) {
    unsigned char buf[trace::wire::kRecordWireSize];
    trace::wire::EncodeRecord(tr.rec, buf);
    w.WriteBytes(buf, sizeof(buf));
    w.WriteU64(tr.event_seq);
    w.WriteU32(tr.sub_seq);
  }
  // `snapshot` is derivable (RebuildSnapshots) and not serialized.
}

void Engine::SaveCheckpoint(std::int64_t epoch_end,
                            std::uint64_t barriers_done) {
  // Each shard section is framed, CRC and all, into its own buffer on the
  // pool, then appended in index order: a section's bytes depend only on
  // its shard's state, so the file is the one a serial save writes.
  std::vector<ckpt::Writer> sections(shards_.size());
  ForEachShard([&](std::size_t i) {
    sections[i].BeginSection("engine.shard." + std::to_string(i),
                             kEngineShardVersion);
    SaveShard(sections[i], shards_[i]);
    sections[i].EndSection();
  });
  ckpt::WriteCheckpointFile(opts_.path, [&](ckpt::Writer& w) {
    w.BeginSection("engine.meta", kEngineMetaVersion);
    w.WriteU64(Fingerprint());
    w.WriteI64(epoch_end);
    w.WriteU64(barriers_done);
    w.WriteU64(static_cast<std::uint64_t>(shards_.size()));
    w.EndSection();
    for (const ckpt::Writer& section : sections) w.Append(section);
    // Caller-owned state (e.g. the output TraceWriter) joins the same
    // atomic commit so trace and engine can never disagree on progress.
    if (opts_.save_extra) opts_.save_extra(w);
  });
}

void Engine::RestoreShard(ckpt::Reader& r, Shard& sh) {
  sh.next_event = static_cast<std::size_t>(r.ReadU64());
  sh.push_cursor = static_cast<std::size_t>(r.ReadU64());
  sh.flush_cursor = static_cast<std::size_t>(r.ReadU64());
  if (sh.next_event > sh.event_indices.size() ||
      sh.push_cursor > push_plans_[sh.site].size() ||
      sh.flush_cursor > dc_flush_times_[sh.dc].size()) {
    throw std::runtime_error("ckpt: shard cursor out of range");
  }
  sh.flushed_stats = CacheStats{};
  sh.flushed_stats.hits = r.ReadU64();
  sh.flushed_stats.misses = r.ReadU64();
  sh.flushed_stats.inserts = r.ReadU64();
  sh.flushed_stats.evictions = r.ReadU64();
  sh.flushed_stats.rejected = r.ReadU64();
  sh.flushed_stats.hit_bytes = r.ReadU64();
  sh.flushed_stats.miss_bytes = r.ReadU64();
  sh.origin.fetches = r.ReadU64();
  sh.origin.bytes = r.ReadU64();
  sh.records = r.ReadU64();
  sh.peer_fetches = r.ReadU64();
  sh.peer_bytes = r.ReadU64();
  sh.browser_fresh_hits = r.ReadU64();
  sh.revalidations = r.ReadU64();
  sh.pushed_bytes = r.ReadU64();
  sh.cache->RestoreState(r);
  sh.browsers.clear();
  sh.browser_order.clear();
  const std::uint64_t nbrowsers = r.ReadU64();
  for (std::uint64_t i = 0; i < nbrowsers; ++i) {
    const std::uint32_t user_index = r.ReadU32();
    BrowserFor(sh, user_index).RestoreState(r);
  }
  sh.pending.clear();
  sh.finalized.clear();
  const std::uint64_t npending = r.ReadCount(kPendingRecordBytes);
  sh.pending.reserve(static_cast<std::size_t>(npending));
  for (std::uint64_t i = 0; i < npending; ++i) {
    const std::vector<unsigned char> buf = r.ReadBytes();
    if (buf.size() != trace::wire::kRecordWireSize) {
      throw std::runtime_error("ckpt: bad pending record size");
    }
    TaggedRecord tr;
    tr.rec = trace::wire::DecodeRecord(buf.data());
    tr.event_seq = r.ReadU64();
    tr.sub_seq = r.ReadU32();
    sh.pending.push_back(tr);
  }
}

void Engine::RestoreFromCheckpoint(ckpt::Reader& r, std::int64_t* epoch_end,
                                   std::uint64_t* barriers_done) {
  r.BeginSection("engine.meta", kEngineMetaVersion);
  const std::uint64_t fp = r.ReadU64();
  if (fp != Fingerprint()) {
    throw std::runtime_error(
        "ckpt: engine fingerprint mismatch — the checkpoint was taken with "
        "a different workload, seed, or simulator configuration");
  }
  *epoch_end = r.ReadI64();
  *barriers_done = r.ReadU64();
  const std::uint64_t nshards = r.ReadU64();
  r.EndSection();
  if (nshards != shards_.size()) {
    throw std::runtime_error("ckpt: shard count mismatch");
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    r.BeginSection("engine.shard." + std::to_string(i), kEngineShardVersion);
    RestoreShard(r, shards_[i]);
    r.EndSection();
  }
  // Peer-fill snapshots are a pure function of the restored caches.
  if (config_.peer_fill) RebuildSnapshots();
}

void Engine::Validate() const {
  for (const OpEvent& e : config_.op_events) {
    if (e.kind == OpEventKind::kDcOutage) {
      if (e.start_ms < 0 || e.end_ms <= e.start_ms) {
        throw std::invalid_argument(
            "Simulator: outage window must satisfy 0 <= start < end");
      }
      if (e.dc < 0 || static_cast<std::size_t>(e.dc) >= dcs_per_site_) {
        throw std::invalid_argument("Simulator: outage dc out of range");
      }
      if (dcs_per_site_ < 2) {
        throw std::invalid_argument(
            "Simulator: a DC outage needs >= 2 DCs to fail over to");
      }
    } else {
      if (e.start_ms < 0) {
        throw std::invalid_argument("Simulator: flush time must be >= 0");
      }
      if (e.dc < OpEvent::kAllDcs ||
          (e.dc >= 0 && static_cast<std::size_t>(e.dc) >= dcs_per_site_)) {
        throw std::invalid_argument("Simulator: flush dc out of range");
      }
    }
  }
  // Overlapping outages of the same DC would make "the" failover target
  // ambiguous to reason about; reject rather than define an ordering.
  for (std::size_t i = 0; i < config_.op_events.size(); ++i) {
    for (std::size_t j = i + 1; j < config_.op_events.size(); ++j) {
      const OpEvent& a = config_.op_events[i];
      const OpEvent& b = config_.op_events[j];
      if (a.kind == OpEventKind::kDcOutage &&
          b.kind == OpEventKind::kDcOutage && a.dc == b.dc &&
          a.start_ms < b.end_ms && b.start_ms < a.end_ms) {
        throw std::invalid_argument(
            "Simulator: overlapping outage windows for the same DC");
      }
    }
  }
  for (const auto& job : jobs_) {
    if (job.generator == nullptr || job.events == nullptr) {
      throw std::invalid_argument("RunSharded: job missing generator/events");
    }
    std::int64_t last_ts = std::numeric_limits<std::int64_t>::min();
    for (const auto& ev : *job.events) {
      if (ev.timestamp_ms < last_ts) {
        throw std::invalid_argument("Simulator: events must be time-sorted");
      }
      last_ts = ev.timestamp_ms;
    }
  }
}

bool Engine::DcDown(std::size_t dc, std::int64_t t) const {
  for (const OpEvent& e : config_.op_events) {
    if (e.kind == OpEventKind::kDcOutage &&
        static_cast<std::size_t>(e.dc) == dc && e.Active(t)) {
      return true;
    }
  }
  return false;
}

std::size_t Engine::RouteForTime(std::size_t home_dc, std::int64_t t) const {
  if (!has_outages_) return home_dc;
  std::size_t d = home_dc;
  for (std::size_t hop = 0; hop < dcs_per_site_; ++hop) {
    if (!DcDown(d, t)) return d;
    d = (d + 1) % dcs_per_site_;
  }
  throw std::runtime_error("Simulator: every DC is down at t=" +
                           std::to_string(t) + "ms — nothing can serve");
}

void Engine::BuildShards() {
  for (const OpEvent& e : config_.op_events) {
    if (e.kind == OpEventKind::kDcOutage) has_outages_ = true;
  }
  dc_flush_times_.resize(dcs_per_site_);
  for (const OpEvent& e : config_.op_events) {
    if (e.kind != OpEventKind::kCacheFlush) continue;
    for (std::size_t d = 0; d < dcs_per_site_; ++d) {
      if (e.dc == OpEvent::kAllDcs || static_cast<std::size_t>(e.dc) == d) {
        dc_flush_times_[d].push_back(e.start_ms);
      }
    }
  }
  for (auto& times : dc_flush_times_) {
    std::sort(times.begin(), times.end());
  }

  shards_.resize(jobs_.size() * dcs_per_site_);
  push_plans_.reserve(jobs_.size());
  for (std::size_t s = 0; s < jobs_.size(); ++s) {
    push_plans_.push_back(
        BuildPushPlan(jobs_[s].generator->catalog(), config_.push));
    for (std::size_t d = 0; d < dcs_per_site_; ++d) {
      Shard& sh = shard(s, d);
      sh.site = s;
      sh.dc = d;
      sh.cache = CreateCache(config_.topology.edge_policy,
                             config_.topology.edge_capacity_bytes,
                             config_.topology.edge_ttl_ms);
    }
    // Pin every event to its user's home DC. The pinning is a pure
    // function of the user, so the per-shard event slices — and therefore
    // every cache's operation sequence — never depend on thread count.
    // Routes are precomputed in one streaming pass over the population
    // (event order is random, which would thrash a lazy user table).
    const synth::UserPopulation& users = jobs_[s].generator->users();
    std::vector<std::uint8_t> user_dc(users.size(), 0);
    users.ForEachUser([&](std::size_t u, const synth::UserInfo& user) {
      user_dc[u] = static_cast<std::uint8_t>(
          RouteIndex(config_.topology, user.continent, user.user_id));
    });
    const auto& events = *jobs_[s].events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      // Outage failover happens here: routing consults the event's own
      // timestamp, so a pinned user serves from their home DC before and
      // after the window and from the failover DC inside it. Still a pure
      // function of (workload, config) — thread count cannot touch it.
      const std::size_t d = RouteForTime(user_dc[events[i].user_index],
                                         events[i].timestamp_ms);
      shard(s, d).event_indices.push_back(i);
    }
  }
}

void Engine::ForEachShard(const std::function<void(std::size_t)>& fn) {
  // One persistent pool for the whole run (rebuilding it every epoch would
  // pay thread spawns per barrier); inline when serial or already nested.
  if (pool_ != nullptr) {
    pool_->Run(shards_.size(), fn);
  } else {
    for (std::size_t i = 0; i < shards_.size(); ++i) fn(i);
  }
}

BrowserCache& Engine::BrowserFor(Shard& sh, std::uint32_t user_index) {
  auto it = sh.browsers.find(user_index);
  if (it == sh.browsers.end()) {
    it = sh.browsers
             .emplace(user_index,
                      BrowserCache(config_.browser_capacity_bytes,
                                   config_.browser_freshness_ms))
             .first;
    sh.browser_order.emplace_back(user_index, &it->second);
  }
  return it->second;
}

void Engine::Fill(Shard& sh, std::uint64_t key, std::uint64_t bytes) {
  if (config_.peer_fill) {
    // Peer holdings are the epoch-snapshotted ones: what sibling DCs held
    // at the last barrier, not what they hold "now" — live peeks would
    // race and make the answer depend on cross-shard timing.
    for (std::size_t d = 0; d < dcs_per_site_; ++d) {
      if (d == sh.dc) continue;
      const auto& snap = shard(sh.site, d).snapshot;
      if (std::binary_search(snap.begin(), snap.end(), key)) {
        ++sh.peer_fetches;
        sh.peer_bytes += bytes;
        return;
      }
    }
  }
  ++sh.origin.fetches;
  sh.origin.bytes += bytes;
}

void Engine::FlushCache(Shard& sh) {
  // The wipe drops resident bytes, not history: the dead generation's
  // counters move to the accumulator and a fresh cache (same policy,
  // capacity, TTL) takes over. The stale peer-fill snapshot stays up until
  // the next barrier — siblings consulting it see the same staleness any
  // mid-epoch eviction produces.
  sh.flushed_stats.Merge(sh.cache->stats());
  sh.cache = CreateCache(config_.topology.edge_policy,
                         config_.topology.edge_capacity_bytes,
                         config_.topology.edge_ttl_ms);
}

void Engine::ApplyOpsUpTo(Shard& sh, std::int64_t now_ms) {
  // Interleave scheduled pushes and cache flushes in time order, so a
  // flush wipes exactly the pushes that preceded it. At a tie the flush
  // lands first: a push scheduled for the same instant re-warms the cold
  // cache. Both cursors advance on event timestamps only — epoch length
  // and thread count never reorder them.
  const std::vector<PushItem>& plan = push_plans_[sh.site];
  const std::vector<std::int64_t>& flushes = dc_flush_times_[sh.dc];
  for (;;) {
    const bool push_due = sh.push_cursor < plan.size() &&
                          plan[sh.push_cursor].push_at_ms <= now_ms;
    const bool flush_due = sh.flush_cursor < flushes.size() &&
                           flushes[sh.flush_cursor] <= now_ms;
    if (!push_due && !flush_due) return;
    if (flush_due && (!push_due || flushes[sh.flush_cursor] <=
                                       plan[sh.push_cursor].push_at_ms)) {
      FlushCache(sh);
      ++sh.flush_cursor;
    } else {
      ApplyOnePush(sh);
    }
  }
}

void Engine::ApplyOnePush(Shard& sh) {
  const std::vector<PushItem>& plan = push_plans_[sh.site];
  const synth::Catalog& catalog = jobs_[sh.site].generator->catalog();
  {
    const auto& item = plan[sh.push_cursor];
    const auto& obj = catalog.object(item.object_index);
    // Push the object (or its leading chunks) into this shard's edge DC.
    // When the prefix reaches the end of the file the final chunk is
    // pushed at its actual (possibly short) size, matching what a viewer
    // fetch would insert — otherwise pushed and fetched copies of the same
    // chunk key disagree on occupancy.
    std::uint64_t chunks = 1;
    std::uint64_t chunk_size = obj.size_bytes;
    std::uint64_t last_size = obj.size_bytes;
    if (obj.content_class == trace::ContentClass::kVideo &&
        config_.chunk_bytes > 0 && obj.size_bytes > config_.chunk_bytes) {
      const std::uint64_t total_chunks =
          (obj.size_bytes + config_.chunk_bytes - 1) / config_.chunk_bytes;
      chunks = std::min<std::uint64_t>(config_.push.video_prefix_chunks,
                                       total_chunks);
      chunk_size = config_.chunk_bytes;
      last_size = chunks == total_chunks
                      ? obj.size_bytes - (total_chunks - 1) * config_.chunk_bytes
                      : config_.chunk_bytes;
    }
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const std::uint64_t push_bytes = c + 1 == chunks ? last_size : chunk_size;
      if (sh.cache->Admit(ChunkKey(obj.url_hash, c), push_bytes,
                          item.push_at_ms)) {
        sh.pushed_bytes += push_bytes;
      }
    }
    ++sh.push_cursor;
  }
}

void Engine::ProcessEvent(Shard& sh, std::uint64_t event_seq) {
  const SiteJob& job = jobs_[sh.site];
  const synth::RequestEvent& ev = (*job.events)[event_seq];
  const synth::UserInfo& user = job.generator->users().user(ev.user_index);
  const synth::ObjectMeta& obj = job.generator->catalog().object(ev.object_index);
  const std::uint32_t publisher_id = job.publisher_id;
  BrowserCache& browser = BrowserFor(sh, ev.user_index);

  // Incognito: the private window from the previous session was closed;
  // its cache is gone when a new session starts.
  if (ev.session_start && user.incognito) browser.Clear();

  // --- anomalies -----------------------------------------------------
  if (ev.anomaly != synth::Anomaly::kNone) {
    trace::LogRecord rec = BaseRecord(ev, user, obj, publisher_id);
    rec.cache_status = trace::CacheStatus::kMiss;
    rec.response_bytes = 0;
    switch (ev.anomaly) {
      case synth::Anomaly::kHotlink:
        rec.response_code = trace::kHttpForbidden;  // 403
        break;
      case synth::Anomaly::kBadRange:
        rec.response_code = trace::kHttpRangeNotSatisfiable;  // 416
        break;
      case synth::Anomaly::kBeacon:
        rec.response_code = trace::kHttpNoContent;  // 204
        break;
      case synth::Anomaly::kNone:
        break;
    }
    sh.pending.push_back({rec, event_seq, 0});
    return;
  }

  // --- video: chunked transfer ------------------------------------------
  if (obj.content_class == trace::ContentClass::kVideo &&
      config_.chunk_bytes > 0) {
    const ChunkPlan plan =
        PlanChunks(obj.size_bytes, ev.watch_fraction, config_.chunk_bytes);
    std::int64_t t = ev.timestamp_ms;
    const auto gap_ms = static_cast<std::int64_t>(
        static_cast<double>(plan.chunk_bytes) /
        config_.playback_bytes_per_s * 1000.0);
    for (std::uint64_t c = 0; c < plan.num_chunks; ++c) {
      const std::uint64_t bytes =
          c + 1 == plan.num_chunks ? plan.last_chunk_bytes : plan.chunk_bytes;
      const std::uint64_t key = ChunkKey(obj.url_hash, c);
      // The final chunk is usually short; cache and origin accounting must
      // use its actual size or every non-multiple video inflates edge
      // occupancy and origin bytes by up to chunk_bytes - 1.
      const trace::CacheStatus status = sh.cache->Access(key, bytes, t);
      if (status == trace::CacheStatus::kMiss) {
        Fill(sh, key, bytes);
      }
      trace::LogRecord rec = BaseRecord(ev, user, obj, publisher_id);
      rec.timestamp_ms = t;
      rec.response_bytes = bytes;
      rec.cache_status = status;
      rec.response_code =
          plan.partial ? trace::kHttpPartialContent : trace::kHttpOk;
      sh.pending.push_back({rec, event_seq, static_cast<std::uint32_t>(c)});
      t += std::max<std::int64_t>(gap_ms, 1);
    }
    return;
  }

  // --- image / other / unchunked video ----------------------------------
  const bool cacheable = obj.size_bytes <= config_.browser_max_object_bytes &&
                         obj.content_class != trace::ContentClass::kVideo;
  if (cacheable) {
    const BrowserLookup lookup = browser.Lookup(obj.url_hash, ev.timestamp_ms);
    if (lookup == BrowserLookup::kFresh) {
      // Served entirely from the local cache: the CDN never sees this
      // request, so no record is emitted.
      ++sh.browser_fresh_hits;
      return;
    }
    if (lookup == BrowserLookup::kStale) {
      // Conditional GET. Content is immutable in this model, so the edge
      // always answers 304 (headers only). The edge still consults its
      // cache; validators for uncached objects pull the object in.
      const trace::CacheStatus status =
          sh.cache->Access(obj.url_hash, obj.size_bytes, ev.timestamp_ms);
      if (status == trace::CacheStatus::kMiss) {
        Fill(sh, obj.url_hash, obj.size_bytes);
      }
      browser.Renew(obj.url_hash, ev.timestamp_ms);
      trace::LogRecord rec = BaseRecord(ev, user, obj, publisher_id);
      rec.response_bytes = 0;
      rec.cache_status = status;
      rec.response_code = trace::kHttpNotModified;  // 304
      sh.pending.push_back({rec, event_seq, 0});
      ++sh.revalidations;
      return;
    }
  }

  const trace::CacheStatus status =
      sh.cache->Access(obj.url_hash, obj.size_bytes, ev.timestamp_ms);
  if (status == trace::CacheStatus::kMiss) {
    Fill(sh, obj.url_hash, obj.size_bytes);
  }
  if (cacheable) {
    browser.Store(obj.url_hash, obj.size_bytes, ev.timestamp_ms);
  }
  trace::LogRecord rec = BaseRecord(ev, user, obj, publisher_id);
  rec.response_bytes = obj.size_bytes;
  rec.cache_status = status;
  rec.response_code = trace::kHttpOk;
  sh.pending.push_back({rec, event_seq, 0});
}

void Engine::ProcessEpoch(Shard& sh, std::int64_t epoch_end_ms, bool last) {
  const auto& events = *jobs_[sh.site].events;
  while (sh.next_event < sh.event_indices.size()) {
    const std::uint64_t ei = sh.event_indices[sh.next_event];
    const synth::RequestEvent& ev = events[ei];
    if (ev.timestamp_ms >= epoch_end_ms) break;
    // Scheduled pushes and cache flushes land between a DC's own requests
    // in exactly the order the sequential simulator applied them (time
    // order, before the first request at or after their instant), so cache
    // state evolution per DC is identical.
    ApplyOpsUpTo(sh, ev.timestamp_ms);
    ProcessEvent(sh, ei);
    ++sh.next_event;
  }
  if (last) ApplyOpsUpTo(sh, util::kMillisPerWeek);

  // Finalize records with timestamps before the boundary: every event in a
  // later epoch starts at ts >= epoch_end, and chunk pacing only moves
  // timestamps forward, so no future record can sort before these.
  sh.finalized.clear();
  auto keep_end = std::partition(
      sh.pending.begin(), sh.pending.end(), [&](const TaggedRecord& r) {
        return !last && r.rec.timestamp_ms >= epoch_end_ms;
      });
  sh.finalized.assign(std::make_move_iterator(keep_end),
                      std::make_move_iterator(sh.pending.end()));
  sh.pending.erase(keep_end, sh.pending.end());
  // (timestamp, event, chunk) is a strict total order within a shard, so a
  // plain sort is deterministic.
  std::sort(sh.finalized.begin(), sh.finalized.end(), TagLess);
  sh.records += sh.finalized.size();
}

void Engine::MergeFinalized() {
  // Serial k-way merge of the shards' finalized runs into the sink by
  // (timestamp, site, event, chunk). Ties are impossible: event_seq is
  // unique within a site and sites are disambiguated explicitly.
  struct Cursor {
    const std::vector<TaggedRecord>* run;
    std::size_t pos;
    std::size_t site;
  };
  const auto greater = [](const Cursor& a, const Cursor& b) {
    const TaggedRecord& x = (*a.run)[a.pos];
    const TaggedRecord& y = (*b.run)[b.pos];
    if (x.rec.timestamp_ms != y.rec.timestamp_ms) {
      return x.rec.timestamp_ms > y.rec.timestamp_ms;
    }
    if (a.site != b.site) return a.site > b.site;
    if (x.event_seq != y.event_seq) return x.event_seq > y.event_seq;
    return x.sub_seq > y.sub_seq;
  };
  std::vector<Cursor> heap;
  heap.reserve(shards_.size());
  for (const Shard& sh : shards_) {
    if (!sh.finalized.empty()) heap.push_back({&sh.finalized, 0, sh.site});
  }
  std::make_heap(heap.begin(), heap.end(), greater);
  batch_.clear();
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    Cursor& top = heap.back();
    batch_.push_back((*top.run)[top.pos].rec);
    if (batch_.size() >= kMergeBatchRecords) {
      sink_.Write(batch_);
      batch_.clear();
    }
    if (++top.pos < top.run->size()) {
      std::push_heap(heap.begin(), heap.end(), greater);
    } else {
      heap.pop_back();
    }
  }
  if (!batch_.empty()) {
    sink_.Write(batch_);
    batch_.clear();
  }
}

void Engine::RebuildSnapshots() {
  ForEachShard([&](std::size_t i) {
    Shard& sh = shards_[i];
    sh.snapshot = sh.cache->SortedKeys();
  });
}

void Engine::NotifyObserver(std::int64_t epoch_end) {
  if (!config_.epoch_observer) return;
  // Empty workload: the sentinel boundary never names a real epoch window.
  if (epoch_end == std::numeric_limits<std::int64_t>::max()) return;
  if (observer_prev_.empty()) observer_prev_.resize(shards_.size());
  EpochSample sample;
  sample.start_ms = epoch_end - config_.epoch_ms;
  sample.end_ms = epoch_end;
  sample.dcs.resize(dcs_per_site_);
  // DC-major, site-minor: samples aggregate sites per DC in site index
  // order, a fixed iteration independent of thread count.
  for (std::size_t d = 0; d < dcs_per_site_; ++d) {
    EpochDcSample& out = sample.dcs[d];
    out.dc = static_cast<int>(d);
    for (std::size_t s = 0; s < jobs_.size(); ++s) {
      const Shard& sh = shards_[s * dcs_per_site_ + d];
      ShardTotals& prev = observer_prev_[s * dcs_per_site_ + d];
      const ShardTotals now = CurrentTotals(sh);
      out.edge.hits += now.edge.hits - prev.edge.hits;
      out.edge.misses += now.edge.misses - prev.edge.misses;
      out.edge.inserts += now.edge.inserts - prev.edge.inserts;
      out.edge.evictions += now.edge.evictions - prev.edge.evictions;
      out.edge.rejected += now.edge.rejected - prev.edge.rejected;
      out.edge.hit_bytes += now.edge.hit_bytes - prev.edge.hit_bytes;
      out.edge.miss_bytes += now.edge.miss_bytes - prev.edge.miss_bytes;
      out.origin.fetches += now.origin.fetches - prev.origin.fetches;
      out.origin.bytes += now.origin.bytes - prev.origin.bytes;
      out.peer_fetches += now.peer_fetches - prev.peer_fetches;
      out.peer_bytes += now.peer_bytes - prev.peer_bytes;
      out.revalidations += now.revalidations - prev.revalidations;
      out.pushed_bytes += now.pushed_bytes - prev.pushed_bytes;
      out.resident_bytes += sh.cache->used_bytes();
      prev = now;
    }
  }
  config_.epoch_observer(sample);
}

void Engine::SyncObserverBaseline() {
  if (!config_.epoch_observer) return;
  observer_prev_.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    observer_prev_[i] = CurrentTotals(shards_[i]);
  }
}

std::vector<SimulatorResult> Engine::Assemble() const {
  std::vector<SimulatorResult> results(jobs_.size());
  for (std::size_t s = 0; s < jobs_.size(); ++s) {
    SimulatorResult& r = results[s];
    r.per_dc_stats.reserve(dcs_per_site_);
    for (std::size_t d = 0; d < dcs_per_site_; ++d) {
      const Shard& sh = shards_[s * dcs_per_site_ + d];
      CacheStats stats = sh.flushed_stats;  // generations dropped by flushes
      stats.Merge(sh.cache->stats());
      r.per_dc_stats.push_back(stats);
      r.edge_stats.Merge(stats);
      r.origin.fetches += sh.origin.fetches;
      r.origin.bytes += sh.origin.bytes;
      r.records += sh.records;
      r.peer_fetches += sh.peer_fetches;
      r.peer_bytes += sh.peer_bytes;
      r.browser_fresh_hits += sh.browser_fresh_hits;
      r.revalidations += sh.revalidations;
      r.pushed_bytes += sh.pushed_bytes;
    }
    // Every shard walks the whole plan, but a pushed object is one object
    // regardless of how many DCs received it.
    for (const PushItem& item : push_plans_[s]) {
      if (item.push_at_ms <= util::kMillisPerWeek) ++r.pushed_objects;
    }
    ATLAS_LOG(kInfo) << "simulated " << r.records << " records, edge "
                     << "hit ratio " << r.edge_stats.HitRatio();
  }
  return results;
}

}  // namespace

std::vector<SimulatorResult> RunSharded(std::span<const SiteJob> jobs,
                                        const SimulatorConfig& config,
                                        trace::RecordSink& sink, int threads,
                                        const CheckpointOptions& ckpt_options) {
  Engine engine(jobs, config, sink, threads, ckpt_options);
  return engine.Run();
}

}  // namespace atlas::cdn
