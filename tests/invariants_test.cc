// Cross-module property tests: end-to-end invariants that must hold for
// every site profile and every seed, independent of calibration.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "scenario_fixtures.h"
#include "trace/content_class.h"
#include "trace/useragent.h"
#include "util/time.h"

namespace atlas {
namespace {

struct Case {
  const char* name;
  synth::SiteProfile (*profile)(double);
  std::uint64_t seed;
};

// Print the case by name and seed: the default printer dumps the struct's
// bytes, pointers included, which change from run to run and would leak into
// the test's name.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.name << " seed " << c.seed;
}

class TraceInvariantsTest : public ::testing::TestWithParam<Case> {
 protected:
  static testutil::BufferedSite Simulate(const Case& c) {
    cdn::SimulatorConfig config;
    config.topology.edge_capacity_bytes = 256ULL << 20;
    return testutil::SimulateSite(c.profile(0.01), 7, config, c.seed);
  }
};

TEST_P(TraceInvariantsTest, EveryRecordIsWellFormed) {
  const auto result = Simulate(GetParam());
  const auto& bank = trace::UaBank::Instance();
  ASSERT_GT(result.trace.size(), 100u);
  EXPECT_TRUE(result.trace.IsSortedByTime());

  const std::set<std::uint16_t> kValidCodes = {200, 204, 206, 304, 403, 416};
  for (const auto& r : result.trace.records()) {
    // Identity and metadata.
    EXPECT_EQ(r.publisher_id, 7u);
    EXPECT_NE(r.url_hash, 0u);
    EXPECT_NE(r.user_id, 0u);
    EXPECT_LT(r.user_agent_id, bank.size());
    EXPECT_GT(r.object_size, 0u);
    // Timestamps: inside the observed week (chunk pacing can push a little
    // past the last request, never past week + an hour).
    EXPECT_GE(r.timestamp_ms, 0);
    EXPECT_LT(r.timestamp_ms, util::kMillisPerWeek + util::kMillisPerHour);
    // Timezone offsets within UTC-14..+14.
    EXPECT_GE(r.tz_offset_quarter_hours, -14 * 4);
    EXPECT_LE(r.tz_offset_quarter_hours, 14 * 4);
    // Response codes from the paper's set, with consistent byte semantics.
    EXPECT_TRUE(kValidCodes.count(r.response_code)) << r.response_code;
    EXPECT_LE(r.response_bytes, r.object_size);
    switch (r.response_code) {
      case trace::kHttpOk:
        EXPECT_GT(r.response_bytes, 0u);
        break;
      case trace::kHttpPartialContent:
        // Range responses only make sense for video content here.
        EXPECT_EQ(trace::ClassOf(r.file_type), trace::ContentClass::kVideo);
        EXPECT_GT(r.response_bytes, 0u);
        break;
      case trace::kHttpNotModified:
      case trace::kHttpNoContent:
      case trace::kHttpForbidden:
      case trace::kHttpRangeNotSatisfiable:
        EXPECT_EQ(r.response_bytes, 0u);
        break;
      default:
        break;
    }
  }
}

TEST_P(TraceInvariantsTest, CacheAccountingIsConserved) {
  const auto result = Simulate(GetParam());
  // Trace-level hit/miss counts equal the simulator's edge stats.
  std::uint64_t hits = 0, misses = 0;
  for (const auto& r : result.trace.records()) {
    if (r.response_code == trace::kHttpOk ||
        r.response_code == trace::kHttpPartialContent ||
        r.response_code == trace::kHttpNotModified) {
      (r.cache_status == trace::CacheStatus::kHit ? hits : misses) += 1;
    }
  }
  EXPECT_EQ(hits, result.edge_stats.hits);
  EXPECT_EQ(misses, result.edge_stats.misses);
  // Without peering, every edge miss is exactly one origin fetch.
  EXPECT_EQ(result.origin.fetches + result.peer_fetches,
            result.edge_stats.misses);
  // Per-DC stats aggregate to the totals.
  cdn::CacheStats sum;
  for (const auto& s : result.per_dc_stats) sum.Merge(s);
  EXPECT_EQ(sum.hits, result.edge_stats.hits);
  EXPECT_EQ(sum.misses, result.edge_stats.misses);
}

TEST_P(TraceInvariantsTest, UsersKeepStableAttributes) {
  const auto result = Simulate(GetParam());
  // A user's UA and timezone never change mid-trace (they are per-user
  // attributes in the model, as the paper's per-user analyses assume).
  std::unordered_map<std::uint64_t, std::pair<std::uint16_t, std::int8_t>>
      seen;
  for (const auto& r : result.trace.records()) {
    const auto [it, inserted] = seen.try_emplace(
        r.user_id, std::make_pair(r.user_agent_id, r.tz_offset_quarter_hours));
    if (!inserted) {
      EXPECT_EQ(it->second.first, r.user_agent_id);
      EXPECT_EQ(it->second.second, r.tz_offset_quarter_hours);
    }
  }
}

TEST_P(TraceInvariantsTest, ObjectsKeepStableAttributes) {
  const auto result = Simulate(GetParam());
  // An object's size and file type are immutable across its records.
  std::unordered_map<std::uint64_t,
                     std::pair<std::uint64_t, trace::FileType>>
      seen;
  for (const auto& r : result.trace.records()) {
    const auto [it, inserted] = seen.try_emplace(
        r.url_hash, std::make_pair(r.object_size, r.file_type));
    if (!inserted) {
      EXPECT_EQ(it->second.first, r.object_size);
      EXPECT_EQ(it->second.second, r.file_type);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, TraceInvariantsTest,
    ::testing::Values(Case{"V1", &synth::SiteProfile::V1, 3},
                      Case{"V2", &synth::SiteProfile::V2, 5},
                      Case{"P1", &synth::SiteProfile::P1, 7},
                      Case{"P2", &synth::SiteProfile::P2, 11},
                      Case{"S1", &synth::SiteProfile::S1, 13},
                      Case{"N1", &synth::SiteProfile::NonAdult, 17}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace atlas
