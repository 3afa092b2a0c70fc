// Operational events applied inside the delivery simulation.
//
// Demand-side events (flash crowds, takedowns) live in synth::DemandEvent
// and reshape the request stream; the events here reshape the *delivery
// infrastructure* while the request stream stays fixed: a regional DC goes
// dark and its pinned users fail over to the next surviving DC, or an edge
// cache is wiped cold (upgrade, crash, config rollout).
//
// Determinism contract: both kinds are pure functions of the workload's
// event timestamps and the config — never of thread count, epoch length,
// or checkpoint cadence. Outage re-homing is resolved per request at
// routing time (engine BuildShards); flushes are applied through a
// per-shard cursor interleaved with the push plan in time order, exactly
// the way scheduled pushes already land between a DC's own requests.
#pragma once

#include <cstdint>
#include <vector>

namespace atlas::cdn {

enum class OpEventKind : std::uint8_t {
  // The DC serves nothing during [start_ms, end_ms): every request whose
  // user is homed there re-routes to the next DC index (mod DC count) that
  // is up at the request's timestamp. Routing is per request, so a user's
  // traffic returns home the instant the window closes. Re-homed users'
  // browser caches are per-(site, DC) shard state, so a failover looks to
  // the surviving DC like a cold new client — intended: a different edge
  // POP has never seen them.
  kDcOutage = 0,
  // The DC's edge cache for every site is dropped cold at start_ms
  // (end_ms is unused): resident bytes vanish, cumulative hit/miss
  // counters survive. dc == kAllDcs wipes every DC.
  kCacheFlush = 1,
};
struct OpEvent {
  OpEventKind kind = OpEventKind::kDcOutage;
  // Outage window [start_ms, end_ms); flushes fire at start_ms.
  std::int64_t start_ms = 0;
  std::int64_t end_ms = 0;
  // Target DC index; kAllDcs (flush only) targets every DC.
  std::int32_t dc = 0;

  static constexpr std::int32_t kAllDcs = -1;

  bool Active(std::int64_t t) const { return t >= start_ms && t < end_ms; }
};

}  // namespace atlas::cdn
