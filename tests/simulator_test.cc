#include "cdn/simulator.h"

#include <gtest/gtest.h>

#include <set>

#include "cdn/engine.h"
#include "scenario_fixtures.h"
#include "trace/content_class.h"
#include "util/rng.h"

namespace atlas::cdn {
namespace {

SimulatorConfig SmallConfig() {
  SimulatorConfig config;
  config.topology.edge_capacity_bytes = 512ULL << 20;
  return config;
}

TEST(SimulatorTest, ProducesSortedTraceWithRecords) {
  const auto result = testutil::SimulateSite(
      synth::SiteProfile::P1(0.01), 2, SmallConfig(), 42);
  EXPECT_GT(result.trace.size(), 1000u);
  EXPECT_TRUE(result.trace.IsSortedByTime());
  for (const auto& r : result.trace.records()) {
    EXPECT_EQ(r.publisher_id, 2u);
  }
}

TEST(SimulatorTest, RecordCountNearTarget) {
  const auto profile = synth::SiteProfile::V1(0.01);
  const auto result = testutil::SimulateSite(profile, 0, SmallConfig(), 42);
  const double ratio = static_cast<double>(result.trace.size()) /
                       static_cast<double>(profile.total_requests);
  // Chunk-inflation calibration is approximate (watch-fraction clamping and
  // end-of-week truncation both shave records); allow a generous band.
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.4);
}

TEST(SimulatorTest, VideoSiteEmitsPartialContent) {
  const auto result =
      testutil::SimulateSite(synth::SiteProfile::V1(0.01), 0, SmallConfig(), 7);
  std::uint64_t partial = 0, ok = 0;
  for (const auto& r : result.trace.records()) {
    if (r.response_code == trace::kHttpPartialContent) ++partial;
    if (r.response_code == trace::kHttpOk) ++ok;
  }
  // 206 dominates video traffic (paper Fig. 16a).
  EXPECT_GT(partial, ok * 10);
}

TEST(SimulatorTest, ImageSiteMostly200) {
  const auto result =
      testutil::SimulateSite(synth::SiteProfile::P1(0.01), 0, SmallConfig(), 7);
  std::uint64_t ok = 0;
  for (const auto& r : result.trace.records()) {
    if (r.response_code == trace::kHttpOk) ++ok;
  }
  EXPECT_GT(static_cast<double>(ok) / static_cast<double>(result.trace.size()),
            0.85);
}

TEST(SimulatorTest, AnomaliesProduceErrorCodes) {
  synth::SiteProfile profile = synth::SiteProfile::P1(0.01);
  profile.hotlink_rate = 0.05;
  profile.bad_range_rate = 0.05;
  profile.beacon_rate = 0.05;
  const auto result = testutil::SimulateSite(profile, 0, SmallConfig(), 9);
  std::set<std::uint16_t> codes;
  for (const auto& r : result.trace.records()) {
    codes.insert(r.response_code);
    if (r.response_code == trace::kHttpForbidden ||
        r.response_code == trace::kHttpRangeNotSatisfiable ||
        r.response_code == trace::kHttpNoContent) {
      EXPECT_EQ(r.response_bytes, 0u);
    }
  }
  EXPECT_TRUE(codes.count(trace::kHttpForbidden));
  EXPECT_TRUE(codes.count(trace::kHttpRangeNotSatisfiable));
  EXPECT_TRUE(codes.count(trace::kHttpNoContent));
}

TEST(SimulatorTest, RevalidationsProduce304) {
  // Non-incognito users with long sessions revalidate stale content.
  synth::SiteProfile profile = synth::SiteProfile::P1(0.01);
  profile.incognito_rate = 0.0;
  profile.repeat_request_prob = 0.4;
  profile.favorite_adopt_prob = 0.8;
  SimulatorConfig config = SmallConfig();
  config.browser_freshness_ms = 60 * 1000;  // stale after a minute
  const auto result = testutil::SimulateSite(profile, 0, config, 11);
  EXPECT_GT(result.revalidations, 0u);
  std::uint64_t not_modified = 0;
  for (const auto& r : result.trace.records()) {
    if (r.response_code == trace::kHttpNotModified) {
      ++not_modified;
      EXPECT_EQ(r.response_bytes, 0u);
    }
  }
  EXPECT_EQ(not_modified, result.revalidations);
}

TEST(SimulatorTest, IncognitoSuppressesBrowserCaching) {
  synth::SiteProfile base = synth::SiteProfile::P1(0.01);
  base.repeat_request_prob = 0.4;
  base.favorite_adopt_prob = 0.8;

  synth::SiteProfile incognito = base;
  incognito.incognito_rate = 1.0;
  synth::SiteProfile normal = base;
  normal.incognito_rate = 0.0;

  const auto r_incognito =
      testutil::SimulateSite(incognito, 0, SmallConfig(), 13);
  const auto r_normal = testutil::SimulateSite(normal, 0, SmallConfig(), 13);
  // §V: private browsing destroys browser-cache utility. Fresh hits and
  // 304s should both collapse relative to normal browsing.
  EXPECT_LT(r_incognito.browser_fresh_hits, r_normal.browser_fresh_hits);
  EXPECT_LE(r_incognito.revalidations, r_normal.revalidations);
}

TEST(SimulatorTest, EdgeStatsConsistentWithTrace) {
  const auto result = testutil::SimulateSite(
      synth::SiteProfile::P2(0.01), 0, SmallConfig(), 15);
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
  // Every miss is an origin fetch.
  EXPECT_EQ(result.origin.fetches, result.edge_stats.misses);
}

TEST(SimulatorTest, PerDcStatsSumToTotal) {
  const auto result = testutil::SimulateSite(
      synth::SiteProfile::S1(0.01), 0, SmallConfig(), 17);
  CacheStats sum;
  for (const auto& s : result.per_dc_stats) sum.Merge(s);
  EXPECT_EQ(sum.hits, result.edge_stats.hits);
  EXPECT_EQ(sum.misses, result.edge_stats.misses);
}

TEST(SimulatorTest, PushImprovesHitRatioAndCutsOriginTraffic) {
  const auto profile = synth::SiteProfile::P2(0.02);
  SimulatorConfig off = SmallConfig();
  SimulatorConfig on = SmallConfig();
  on.push.enabled = true;
  on.push.top_n = 300;
  const auto r_off = testutil::SimulateSite(profile, 0, off, 19);
  const auto r_on = testutil::SimulateSite(profile, 0, on, 19);
  EXPECT_GT(r_on.pushed_objects, 0u);
  EXPECT_GE(r_on.edge_stats.HitRatio(), r_off.edge_stats.HitRatio());
  EXPECT_LE(r_on.origin.bytes, r_off.origin.bytes);
}

TEST(SimulatorTest, PeerFillDivertsOriginTraffic) {
  const auto profile = synth::SiteProfile::P1(0.02);
  SimulatorConfig off = SmallConfig();
  SimulatorConfig on = SmallConfig();
  on.peer_fill = true;
  const auto r_off = testutil::SimulateSite(profile, 0, off, 21);
  const auto r_on = testutil::SimulateSite(profile, 0, on, 21);
  EXPECT_EQ(r_off.peer_fetches, 0u);
  EXPECT_GT(r_on.peer_fetches, 0u);
  // Total fills are conserved; peer fills replace origin fetches 1:1.
  EXPECT_EQ(r_on.origin.fetches + r_on.peer_fetches, r_off.origin.fetches);
  EXPECT_LT(r_on.origin.bytes, r_off.origin.bytes);
  // Log records themselves are unchanged by the fill path.
  ASSERT_EQ(r_on.trace.size(), r_off.trace.size());
  EXPECT_EQ(r_on.trace[r_on.trace.size() / 2],
            r_off.trace[r_off.trace.size() / 2]);
}

TEST(SimulatorTest, FinalVideoChunkBilledAtActualSize) {
  // Regression: the final chunk of a video whose size is not a multiple of
  // chunk_bytes used to be looked up and origin-filled at the full
  // chunk_bytes, inflating edge occupancy and origin bytes for every such
  // video. A cold full watch must pull exactly the object's bytes.
  synth::WorkloadGenerator gen(synth::SiteProfile::V1(0.01), 3);
  const synth::Catalog& catalog = gen.catalog();
  SimulatorConfig config = SmallConfig();

  std::size_t target = catalog.size();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto& obj = catalog.object(i);
    if (obj.content_class == trace::ContentClass::kVideo &&
        obj.size_bytes > config.chunk_bytes &&
        obj.size_bytes % config.chunk_bytes != 0) {
      target = i;
      break;
    }
  }
  ASSERT_LT(target, catalog.size()) << "no non-multiple video in catalog";
  const auto& obj = catalog.object(target);

  synth::RequestEvent ev;
  ev.timestamp_ms = 1000;
  ev.user_index = 0;
  ev.object_index = static_cast<std::uint32_t>(target);
  ev.session_start = true;
  ev.watch_fraction = 1.0;

  const std::vector<synth::RequestEvent> events = {ev};
  const SiteJob job{&gen, &events, 0};
  trace::TraceBuffer trace;
  trace::BufferSink sink(trace);
  const auto result = RunSharded({&job, 1}, config, sink).front();
  const std::uint64_t expected_chunks =
      (obj.size_bytes + config.chunk_bytes - 1) / config.chunk_bytes;
  ASSERT_EQ(trace.size(), expected_chunks);
  // Every chunk is a cold miss; origin traffic and miss-byte accounting
  // must both equal the object size, not a whole-chunk roundup.
  EXPECT_EQ(result.origin.bytes, obj.size_bytes);
  EXPECT_EQ(result.edge_stats.miss_bytes, obj.size_bytes);
  // The emitted records already carried the true size; they must agree
  // with what the cache layer was billed.
  std::uint64_t response_bytes = 0;
  for (const auto& r : trace.records()) response_bytes += r.response_bytes;
  EXPECT_EQ(response_bytes, obj.size_bytes);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  const auto a = testutil::SimulateSite(
      synth::SiteProfile::V2(0.01), 0, SmallConfig(), 23);
  const auto b = testutil::SimulateSite(
      synth::SiteProfile::V2(0.01), 0, SmallConfig(), 23);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); i += 97) {
    EXPECT_EQ(a.trace[i], b.trace[i]);
  }
}

TEST(ScenarioTest, PaperStudyProducesAllFiveSites) {
  const auto study = testutil::RunPaperStudy(0.005, SmallConfig(), 31);
  EXPECT_EQ(study.result.site_results.size(), 5u);
  EXPECT_TRUE(study.trace.IsSortedByTime());
  std::set<std::uint32_t> publishers;
  for (const auto& r : study.trace.records()) publishers.insert(r.publisher_id);
  EXPECT_EQ(publishers.size(), 5u);
  EXPECT_EQ(study.registry().Get(0).name, "V-1");
}

}  // namespace
}  // namespace atlas::cdn
