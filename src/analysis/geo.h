// Geographic traffic breakdown.
//
// §III: the trace covers "users in four different continents", and every
// CDN provisioning decision in §V is per data center, i.e. per region.
// This analysis groups a trace by the continent inferred from each record's
// timezone offset (the same coarse geolocation an anonymized IP affords)
// and reports demand, unique users, and the UTC peak hour per region.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "stats/timeseries.h"
#include "synth/user_model.h"
#include "trace/block.h"
#include "trace/trace_buffer.h"

namespace atlas::analysis {

struct ContinentStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t unique_users = 0;
  // Request counts per UTC hour-of-day (provisioning is done in UTC).
  std::array<double, 24> utc_hourly_requests{};
  std::array<double, 24> utc_hourly_bytes{};

  int PeakUtcHour() const;
  // Peak-hour byte rate averaged over the trace days, bytes/hour.
  double PeakHourlyBytes(int days) const;
};

struct GeoResult {
  std::string site;
  std::array<ContinentStats, synth::kNumContinents> continents{};
  std::int64_t span_ms = 0;

  const ContinentStats& of(synth::Continent c) const {
    return continents[static_cast<std::size_t>(c)];
  }
};

// Single pass over a block stream; memory is O(distinct users), never
// O(records), so it works on traces larger than RAM.
GeoResult ComputeGeo(trace::BlockSource& source, const std::string& site_name);

// In-memory convenience over the streaming pass.
GeoResult ComputeGeo(const trace::TraceBuffer& trace,
                     const std::string& site_name);

}  // namespace atlas::analysis
