#include "analysis/geo.h"

#include <gtest/gtest.h>

#include "analysis/composition.h"
#include "analysis_fixtures.h"
#include "scenario_fixtures.h"
#include "util/time.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

TEST(GeoTest, GroupsByTimezoneContinent) {
  trace::TraceBuffer buf;
  // NA user (UTC-6 = -24 quarter hours): 2 requests.
  buf.Add(MakeRecord({.t = 0, .url = 1, .user = 1, .bytes = 100, .tz = -24}));
  buf.Add(MakeRecord({.t = 1000, .url = 2, .user = 1, .bytes = 50, .tz = -24}));
  // EU user (UTC+1): 1 request.
  buf.Add(MakeRecord({.t = 2000, .url = 3, .user = 2, .bytes = 10, .tz = 4}));
  // Asia user (UTC+8): 1 request.
  buf.Add(MakeRecord({.t = 3000, .url = 4, .user = 3, .bytes = 20, .tz = 32}));
  const auto geo = ComputeGeo(buf, "X");
  EXPECT_EQ(geo.of(synth::Continent::kNorthAmerica).requests, 2u);
  EXPECT_EQ(geo.of(synth::Continent::kNorthAmerica).bytes, 150u);
  EXPECT_EQ(geo.of(synth::Continent::kNorthAmerica).unique_users, 1u);
  EXPECT_EQ(geo.of(synth::Continent::kEurope).requests, 1u);
  EXPECT_EQ(geo.of(synth::Continent::kAsia).requests, 1u);
  EXPECT_EQ(geo.of(synth::Continent::kSouthAmerica).requests, 0u);
}

TEST(GeoTest, UtcHourlyAccounting) {
  trace::TraceBuffer buf;
  for (int i = 0; i < 5; ++i) {
    buf.Add(MakeRecord({.t = 3 * util::kMillisPerHour + i, .url = 1,
                        .user = 1, .bytes = 10, .tz = -24}));
  }
  buf.Add(MakeRecord({.t = 10 * util::kMillisPerHour, .url = 1, .user = 1,
                      .bytes = 10, .tz = -24}));
  const auto geo = ComputeGeo(buf, "X");
  const auto& na = geo.of(synth::Continent::kNorthAmerica);
  EXPECT_EQ(na.PeakUtcHour(), 3);
  EXPECT_DOUBLE_EQ(na.utc_hourly_requests[3], 5.0);
  EXPECT_GT(na.PeakHourlyBytes(1), 0.0);
}

TEST(GeoTest, EmptyTraceSafe) {
  const auto geo = ComputeGeo(trace::TraceBuffer{}, "E");
  for (const auto& c : geo.continents) {
    EXPECT_EQ(c.requests, 0u);
    EXPECT_EQ(c.unique_users, 0u);
  }
  EXPECT_EQ(geo.span_ms, 0);
}

// Closed loop: the generator's continent mix is recovered from the trace.
TEST(GeoClosedLoopTest, RecoversContinentMix) {
  cdn::SimulatorConfig config;
  const auto profile = synth::SiteProfile::V1(0.02);
  const auto sim = testutil::SimulateSite(profile, 0, config, 3);
  const auto geo = ComputeGeo(sim.trace, "V-1");
  // Profile mix {NA 0.45, EU 0.30, AS 0.15, SA 0.10}; request shares follow
  // user shares loosely (heavy-tailed activity adds variance).
  const auto records = static_cast<double>(sim.trace.size());
  const auto share = [&](synth::Continent c) {
    return static_cast<double>(geo.of(c).requests) / records;
  };
  EXPECT_GT(share(synth::Continent::kNorthAmerica), 0.2);
  EXPECT_GT(share(synth::Continent::kEurope), 0.1);
  EXPECT_GT(share(synth::Continent::kAsia), 0.02);
  EXPECT_GT(share(synth::Continent::kSouthAmerica), 0.02);
  // Every record and every user lands in exactly one region.
  std::uint64_t requests = 0;
  std::uint64_t users = 0;
  for (const auto& c : geo.continents) {
    requests += c.requests;
    users += c.unique_users;
  }
  EXPECT_EQ(requests, sim.trace.size());
  EXPECT_EQ(users, ComputeDatasetSummary(sim.trace, "V-1").users);
}

}  // namespace
}  // namespace atlas::analysis
