// The delivery simulation's vocabulary: its configuration, its counters,
// and the per-epoch samples it reports. The engine (engine.h) runs it and
// scenario.h is where a run starts.
//
// For each logical request the simulation walks the delivery path the
// paper's logs were produced by:
//
//   anomaly?      -> 403 (hotlink), 416 (bad range), 204 (beacon)
//   browser cache -> fresh: served locally, NO log record (the CDN never
//                    sees it — exactly why Fig. 16 shows so few 304s for
//                    incognito-heavy adult sites);
//                    stale: conditional GET -> 304 + freshness renewal
//   edge cache    -> HIT, or MISS + origin fetch + admission
//   chunking      -> video views expand into 206 chunk transactions paced
//                    at playback speed
//
// The output is a time-sorted record stream in exactly the paper's log
// schema, emitted into a trace::RecordSink (in-memory buffer or v2 file —
// the simulation never needs the whole trace resident), plus delivery-side
// statistics the logs alone cannot show (origin load, browser-cache
// absorption), collected in a SimulatorResult and used by the ablation
// benches.
//
// Execution is sharded by edge data center (see engine.h): each user is
// pinned to one DC, so each shard owns its edge cache, its users' browser
// caches, and its slice of events. Thread count never changes a single
// output byte.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cdn/chunking.h"
#include "cdn/op_event.h"
#include "cdn/push.h"
#include "cdn/topology.h"
#include "synth/workload.h"

namespace atlas::cdn {

// One DC's delivery activity over one engine epoch, reported to an
// EpochObserver as deltas since the previous barrier. Everything here is a
// 64-bit counter already maintained by the engine — observers see the
// simulation, they never steer it.
struct EpochDcSample {
  int dc = 0;
  CacheStats edge;               // hit/miss/byte deltas this epoch
  OriginStats origin;            // origin fetches attributed to this DC
  std::uint64_t peer_fetches = 0;
  std::uint64_t peer_bytes = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t pushed_bytes = 0;
  // Edge-cache occupancy at the barrier (not a delta).
  std::uint64_t resident_bytes = 0;
};

// One engine barrier: the epoch window [start_ms, end_ms) and every DC's
// delta sample, in DC index order. Fired serially on the coordinating
// thread, after shard merge and before any checkpoint for that barrier, so
// an observer's own state can ride the same checkpoint atomically.
struct EpochSample {
  std::int64_t start_ms = 0;
  std::int64_t end_ms = 0;
  std::vector<EpochDcSample> dcs;
};

using EpochObserver = std::function<void(const EpochSample&)>;

struct SimulatorConfig {
  TopologyConfig topology;
  // Video chunk size; 0 disables chunking.
  std::uint64_t chunk_bytes = 2ULL << 20;
  // Playback bytes-per-second: spaces chunk requests in time.
  double playback_bytes_per_s = 600e3;
  // Browser cache per user.
  std::uint64_t browser_capacity_bytes = 50ULL << 20;
  std::int64_t browser_freshness_ms = 24 * 3600 * 1000LL;
  // Only objects up to this size are browser-cacheable (videos stream via
  // range requests and bypass the cache).
  std::uint64_t browser_max_object_bytes = 4ULL << 20;
  // Cooperative fill: on an edge miss, fetch from a sibling data center
  // that holds the object instead of the origin (cheaper transit; the
  // "copies closer to users" idea extended across the footprint).
  bool peer_fill = false;
  // Epoch length of the sharded engine. Shards synchronize at fixed
  // multiples of this interval to flush finalized records downstream and —
  // when peer_fill is on — exchange immutable snapshots of their cache
  // holdings, which is what sibling-DC lookups consult during the next
  // epoch (a miss can only be served by a peer copy that existed at the
  // last boundary). The trace is a pure function of config + seed and is
  // identical for any epoch length and any thread count; only the
  // peer-fill/origin split of miss traffic depends on this knob.
  std::int64_t epoch_ms = 3600 * 1000LL;
  PushConfig push;
  // Operational events (DC outages, cache flushes), applied by the sharded
  // engine as pure functions of the workload timestamps — see op_event.h.
  // Part of the engine fingerprint: resuming against an edited timeline
  // fails instead of splicing two different deliveries.
  std::vector<OpEvent> op_events;
  // Execution-only observation hook: fired once per epoch barrier with
  // per-DC counter deltas. Like the thread count, it can never shape a
  // record, so it is deliberately EXCLUDED from Engine::Fingerprint() and
  // from the scenario canonical form — attaching or detaching an observer
  // must not invalidate checkpoints or golden digests.
  EpochObserver epoch_observer;
};

// Delivery-side counters for one simulation (or one shard of one): a
// mergeable accumulator, all 64-bit, so per-shard results fold
// associatively into site and scenario totals.
struct SimulatorResult {
  CacheStats edge_stats;                 // aggregated over DCs
  std::vector<CacheStats> per_dc_stats;  // indexed like RouteIndex
  OriginStats origin;
  // Log records emitted into the sink.
  std::uint64_t records = 0;
  // Cooperative fills served by sibling DCs instead of the origin.
  std::uint64_t peer_fetches = 0;
  std::uint64_t peer_bytes = 0;
  // Requests absorbed by browser caches (served fresh, never logged).
  std::uint64_t browser_fresh_hits = 0;
  // Conditional GETs answered 304.
  std::uint64_t revalidations = 0;
  std::uint64_t pushed_objects = 0;
  std::uint64_t pushed_bytes = 0;

  // Folds `other` into this accumulator (counters add, cache stats merge,
  // per-DC slots merge index-wise).
  void Merge(const SimulatorResult& other);
};

}  // namespace atlas::cdn
