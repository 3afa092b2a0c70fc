// atlas::energy — per-DC energy & dollar-cost accounting for the CDN.
//
// The paper's §V implications (push diurnally-popular objects, partition
// caches by size, schedule revalidations) are argued through hit ratios;
// this subsystem turns them into physical quantities. Every byte the
// delivery simulation moves is attributed to a path tier — edge hit,
// peer fill, origin fetch, or push — and each tier carries a network
// energy price (J/GB) and a transit price (USD/GB). On top of that sit
// per-DC server power (an idle floor plus a busy delta scaled by egress
// duty cycle) and storage power for cache-resident bytes.
//
// The accounting is observation-only by construction: it consumes the
// engine's existing 64-bit delivery counters through the epoch-observer
// hook and never touches a record, so every pinned golden trace digest
// survives with or without it. All accumulation is integer; joules and
// dollars are derived once, at Report() time, in a fixed iteration order —
// which is what makes merged-shard and killed+resumed runs bit-identical.
#pragma once

#include <cstdint>
#include <vector>

#include "cdn/scenario_spec.h"
#include "cdn/simulator.h"

namespace atlas::energy {

// Cumulative delivery counters for one DC, all 64-bit and associatively
// mergeable (the same design contract as cdn::SimulatorResult).
struct DcCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t hit_bytes = 0;
  std::uint64_t miss_bytes = 0;
  std::uint64_t origin_fetches = 0;
  std::uint64_t origin_bytes = 0;
  std::uint64_t peer_fetches = 0;
  std::uint64_t peer_bytes = 0;
  std::uint64_t pushed_bytes = 0;
  std::uint64_t revalidations = 0;
  // Time integral of edge-cache occupancy, in KiB·ms: occupancy is sampled
  // at each epoch barrier and held for the epoch. KiB granularity keeps a
  // week of a multi-GB cache far from u64 overflow.
  std::uint64_t resident_kib_ms = 0;

  // Bytes egressed to users from this DC (hits plus miss-through traffic).
  std::uint64_t served_bytes() const { return hit_bytes + miss_bytes; }

  bool operator==(const DcCounters&) const = default;
};

// Joules and dollars for one accounting scope (one DC, or the fleet).
struct EnergyBreakdown {
  double server_j = 0.0;
  double network_j = 0.0;
  double storage_j = 0.0;
  double electricity_usd = 0.0;
  double transit_usd = 0.0;

  double TotalJoules() const { return server_j + network_j + storage_j; }
  double TotalKwh() const { return TotalJoules() / 3.6e6; }
  double TotalUsd() const { return electricity_usd + transit_usd; }

  void Add(const EnergyBreakdown& other);
};

struct DcEnergy {
  int dc = 0;
  std::uint64_t served_bytes = 0;
  // Fraction of the DC's egress capacity used over the observed span.
  double duty = 0.0;
  EnergyBreakdown energy;
};

struct EnergyReport {
  std::int64_t span_ms = 0;   // total observed wall span (epochs * epoch_ms)
  std::uint64_t epochs = 0;
  std::vector<DcEnergy> dcs;  // DC index order
  EnergyBreakdown total;      // sum over dcs, folded in index order
};

// Pure joule/dollar math over counter blocks; holds the spec by value.
class EnergyModel {
 public:
  EnergyModel() = default;
  explicit EnergyModel(const cdn::EnergySpec& spec) : spec_(spec) {}

  const cdn::EnergySpec& spec() const { return spec_; }

  // Egress duty cycle of one DC over `span_ms` of wall time, in [0, 1].
  double DutyCycle(std::uint64_t served_bytes, std::int64_t span_ms) const;

  // Full breakdown for one DC's counters over `span_ms` of wall time.
  EnergyBreakdown Cost(const DcCounters& c, std::int64_t span_ms) const;

  // Whole-run summary straight from a SimulatorResult (the ablation path:
  // no epoch attribution ran). Per-DC entries carry server power and duty
  // from the per-DC byte split; network/transit tiers use the run-wide
  // counters and land in `total` only. Storage is zero here — occupancy
  // over time needs the epoch observer.
  EnergyReport FromResult(const cdn::SimulatorResult& result,
                          std::int64_t span_ms) const;

 private:
  cdn::EnergySpec spec_;
};

}  // namespace atlas::energy
