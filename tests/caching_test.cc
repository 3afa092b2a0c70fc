#include "analysis/caching.h"

#include <gtest/gtest.h>

#include "analysis_fixtures.h"
#include "scenario_fixtures.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;
using trace::CacheStatus;

TEST(CachingTest, PerObjectHitRatios) {
  trace::TraceBuffer buf;
  // Object 1 (image): 3 hits, 1 miss -> 0.75.
  for (int i = 0; i < 3; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 1, .cache = CacheStatus::kHit}));
  }
  buf.Add(MakeRecord({.t = 4, .url = 1, .cache = CacheStatus::kMiss}));
  // Object 2 (video): all misses -> 0.0.
  for (int i = 0; i < 2; ++i) {
    buf.Add(MakeRecord({.t = 10 + i, .url = 2, .type = trace::FileType::kMp4,
                        .code = trace::kHttpPartialContent,
                        .cache = CacheStatus::kMiss}));
  }
  const auto result = ComputeCaching(buf, "X");
  EXPECT_EQ(result.image_hit_ratio.count(), 1u);
  EXPECT_DOUBLE_EQ(result.image_hit_ratio.Median(), 0.75);
  EXPECT_EQ(result.video_hit_ratio.count(), 1u);
  EXPECT_DOUBLE_EQ(result.video_hit_ratio.Median(), 0.0);
  EXPECT_DOUBLE_EQ(result.overall_hit_ratio, 0.5);
  EXPECT_DOUBLE_EQ(result.image_overall_hit_ratio, 0.75);
  EXPECT_DOUBLE_EQ(result.video_overall_hit_ratio, 0.0);
}

TEST(CachingTest, ErrorsExcludedFromHitAccounting) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .url = 1, .cache = CacheStatus::kHit}));
  buf.Add(MakeRecord({.t = 1, .url = 1, .code = trace::kHttpForbidden,
                      .cache = CacheStatus::kMiss}));
  buf.Add(MakeRecord({.t = 2, .url = 1, .code = trace::kHttpRangeNotSatisfiable,
                      .cache = CacheStatus::kMiss}));
  const auto result = ComputeCaching(buf, "X");
  EXPECT_DOUBLE_EQ(result.overall_hit_ratio, 1.0);
  // But the error codes still show up in Fig. 16 counts.
  EXPECT_EQ(result.all_response_codes.at(trace::kHttpForbidden), 1u);
  EXPECT_EQ(result.all_response_codes.at(trace::kHttpRangeNotSatisfiable), 1u);
}

TEST(CachingTest, ResponseCodePanelsSplitByClass) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .url = 1, .type = trace::FileType::kMp4,
                      .code = trace::kHttpPartialContent}));
  buf.Add(MakeRecord({.t = 1, .url = 2, .type = trace::FileType::kJpg,
                      .code = trace::kHttpNotModified}));
  const auto result = ComputeCaching(buf, "X");
  EXPECT_EQ(result.video_response_codes.at(trace::kHttpPartialContent), 1u);
  EXPECT_EQ(result.video_response_codes.count(trace::kHttpNotModified), 0u);
  EXPECT_EQ(result.image_response_codes.at(trace::kHttpNotModified), 1u);
}

TEST(CachingTest, NotModifiedShare) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .url = 1, .code = trace::kHttpOk}));
  buf.Add(MakeRecord({.t = 1, .url = 1, .code = trace::kHttpNotModified}));
  buf.Add(MakeRecord({.t = 2, .url = 1, .code = trace::kHttpOk}));
  buf.Add(MakeRecord({.t = 3, .url = 1, .code = trace::kHttpOk}));
  const auto result = ComputeCaching(buf, "X");
  EXPECT_DOUBLE_EQ(result.NotModifiedShare(), 0.25);
}

TEST(CachingTest, PopularityCorrelation) {
  trace::TraceBuffer buf;
  // Popular object: 20 requests, 19 hits. Unpopular: 2 requests, 0 hits.
  for (int i = 0; i < 20; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 1,
                        .cache = i == 0 ? CacheStatus::kMiss
                                        : CacheStatus::kHit}));
  }
  for (int i = 0; i < 2; ++i) {
    buf.Add(MakeRecord({.t = 100 + i, .url = 2, .cache = CacheStatus::kMiss}));
  }
  const auto result = ComputeCaching(buf, "X");
  EXPECT_GT(result.popularity_hit_correlation, 0.99);
}

TEST(CachingTest, EmptyTraceSafe) {
  const auto result = ComputeCaching(trace::TraceBuffer{}, "E");
  EXPECT_DOUBLE_EQ(result.overall_hit_ratio, 0.0);
  EXPECT_DOUBLE_EQ(result.NotModifiedShare(), 0.0);
}

// Closed loop (Figs. 15-16 / §V).
TEST(CachingClosedLoopTest, PaperShapeHolds) {
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 2ULL << 30;
  const auto sim =
      testutil::SimulateSite(synth::SiteProfile::V2(0.03), 0, config, 7);
  const auto result = ComputeCaching(sim.trace, "V-2");
  // Popular objects cache better: strong positive correlation (paper: >0.9).
  EXPECT_GT(result.popularity_hit_correlation, 0.5);
  // Aggregate hit ratio in a healthy band.
  EXPECT_GT(result.overall_hit_ratio, 0.5);
  // 304s are rare for adult sites (incognito browsing, §V).
  EXPECT_LT(result.NotModifiedShare(), 0.05);
  // Images cache at least as well as video chunks.
  EXPECT_GE(result.image_overall_hit_ratio, result.video_overall_hit_ratio - 0.1);
}

}  // namespace
}  // namespace atlas::analysis
