#include "analysis/geo.h"

#include <algorithm>
#include <unordered_set>

#include "util/hash.h"
#include "util/time.h"

namespace atlas::analysis {

int ContinentStats::PeakUtcHour() const {
  return static_cast<int>(std::max_element(utc_hourly_requests.begin(),
                                           utc_hourly_requests.end()) -
                          utc_hourly_requests.begin());
}

double ContinentStats::PeakHourlyBytes(int days) const {
  if (days <= 0) return 0.0;
  const double peak =
      *std::max_element(utc_hourly_bytes.begin(), utc_hourly_bytes.end());
  return peak / static_cast<double>(days);
}

GeoResult ComputeGeo(trace::BlockSource& source,
                     const std::string& site_name) {
  GeoResult result;
  result.site = site_name;

  std::array<std::unordered_set<std::uint64_t>, synth::kNumContinents> users;
  std::int64_t start_ms = 0;
  std::int64_t end_ms = 0;
  bool any = false;
  for (const auto* b = source.NextBlock(); b != nullptr;
       b = source.NextBlock()) {
    for (std::size_t i = 0; i < b->size(); ++i) {
      const std::int64_t ts = b->timestamp_ms[i];
      if (!any) {
        start_ms = end_ms = ts;
        any = true;
      } else {
        start_ms = std::min(start_ms, ts);
        end_ms = std::max(end_ms, ts);
      }
      const auto c = static_cast<std::size_t>(
          synth::ContinentFromTzQuarterHours(b->tz_offset_quarter_hours[i]));
      auto& stats = result.continents[c];
      ++stats.requests;
      stats.bytes += b->response_bytes[i];
      users[c].insert(b->user_id[i]);
      const auto hour = static_cast<std::size_t>(
          ((ts / util::kMillisPerHour) % 24 + 24) % 24);
      stats.utc_hourly_requests[hour] += 1.0;
      stats.utc_hourly_bytes[hour] += static_cast<double>(b->response_bytes[i]);
    }
  }
  result.span_ms = end_ms - start_ms;
  for (std::size_t c = 0; c < users.size(); ++c) {
    result.continents[c].unique_users = users[c].size();
  }
  return result;
}

GeoResult ComputeGeo(const trace::TraceBuffer& trace,
                     const std::string& site_name) {
  trace::BufferBlockSource source(trace);
  return ComputeGeo(source, site_name);
}

}  // namespace atlas::analysis
