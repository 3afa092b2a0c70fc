#include "energy/model.h"

#include <algorithm>

namespace atlas::energy {
namespace {

constexpr double kBytesPerGb = 1e9;
constexpr double kJoulesPerKwh = 3.6e6;

}  // namespace

void EnergyBreakdown::Add(const EnergyBreakdown& other) {
  server_j += other.server_j;
  network_j += other.network_j;
  storage_j += other.storage_j;
  electricity_usd += other.electricity_usd;
  transit_usd += other.transit_usd;
}

double EnergyModel::DutyCycle(std::uint64_t served_bytes,
                              std::int64_t span_ms) const {
  if (span_ms <= 0) return 0.0;
  const double span_s = static_cast<double>(span_ms) / 1000.0;
  const double capacity_bytes_per_s = spec_.server_capacity_gbps * 1e9 / 8.0;
  return std::min(1.0, static_cast<double>(served_bytes) /
                           (capacity_bytes_per_s * span_s));
}

EnergyBreakdown EnergyModel::Cost(const DcCounters& c,
                                  std::int64_t span_ms) const {
  EnergyBreakdown b;
  const double span_s = span_ms > 0 ? static_cast<double>(span_ms) / 1000.0
                                    : 0.0;
  const double duty = DutyCycle(c.served_bytes(), span_ms);
  b.server_j = spec_.server_idle_watts * span_s +
               (spec_.server_busy_watts - spec_.server_idle_watts) * duty *
                   span_s;
  b.network_j =
      (static_cast<double>(c.hit_bytes) * spec_.edge_hit_j_per_gb +
       static_cast<double>(c.peer_bytes) * spec_.peer_fill_j_per_gb +
       static_cast<double>(c.origin_bytes) * spec_.origin_fetch_j_per_gb +
       static_cast<double>(c.pushed_bytes) * spec_.push_j_per_gb) /
      kBytesPerGb;
  // resident_kib_ms -> GiB·s: /1024/1024 (KiB->GiB), /1000 (ms->s).
  b.storage_j = spec_.storage_watts_per_gb *
                (static_cast<double>(c.resident_kib_ms) /
                 (1024.0 * 1024.0 * 1000.0));
  b.electricity_usd = (b.server_j + b.network_j + b.storage_j) /
                      kJoulesPerKwh * spec_.electricity_usd_per_kwh;
  b.transit_usd =
      (static_cast<double>(c.hit_bytes) * spec_.edge_hit_usd_per_gb +
       static_cast<double>(c.peer_bytes) * spec_.peer_fill_usd_per_gb +
       static_cast<double>(c.origin_bytes) * spec_.origin_fetch_usd_per_gb +
       static_cast<double>(c.pushed_bytes) * spec_.push_usd_per_gb) /
      kBytesPerGb;
  return b;
}

EnergyReport EnergyModel::FromResult(const cdn::SimulatorResult& result,
                                     std::int64_t span_ms) const {
  EnergyReport report;
  report.span_ms = span_ms;
  report.dcs.reserve(result.per_dc_stats.size());
  for (std::size_t d = 0; d < result.per_dc_stats.size(); ++d) {
    const cdn::CacheStats& s = result.per_dc_stats[d];
    DcCounters c;
    c.hits = s.hits;
    c.misses = s.misses;
    c.hit_bytes = s.hit_bytes;
    c.miss_bytes = s.miss_bytes;
    DcEnergy dc;
    dc.dc = static_cast<int>(d);
    dc.served_bytes = c.served_bytes();
    dc.duty = DutyCycle(dc.served_bytes, span_ms);
    // Server power only: the run-wide counters below cannot be split by DC.
    dc.energy.server_j = Cost(c, span_ms).server_j;
    dc.energy.electricity_usd = dc.energy.server_j / kJoulesPerKwh *
                                spec_.electricity_usd_per_kwh;
    report.total.Add(dc.energy);
    report.dcs.push_back(dc);
  }
  DcCounters tiers;
  tiers.hit_bytes = result.edge_stats.hit_bytes;
  tiers.peer_bytes = result.peer_bytes;
  tiers.origin_bytes = result.origin.bytes;
  tiers.pushed_bytes = result.pushed_bytes;
  EnergyBreakdown net;
  // Cost() with span 0 yields the pure per-byte terms (no server floor);
  // miss_bytes stays zero above so hit_bytes alone prices the egress tier.
  const EnergyBreakdown tier_cost = Cost(tiers, 0);
  net.network_j = tier_cost.network_j;
  net.electricity_usd = tier_cost.network_j / kJoulesPerKwh *
                        spec_.electricity_usd_per_kwh;
  net.transit_usd = tier_cost.transit_usd;
  report.total.Add(net);
  return report;
}

}  // namespace atlas::energy
