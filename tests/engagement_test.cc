#include "analysis/engagement.h"

#include <gtest/gtest.h>

#include "analysis_fixtures.h"
#include "scenario_fixtures.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

TEST(EngagementTest, CountsUsersAndRequestsPerObject) {
  trace::TraceBuffer buf;
  // Object 1: user 1 requests it 20 times (addicted); object 2: 4 distinct
  // users once each (viral).
  for (int i = 0; i < 20; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 1, .user = 1,
                        .type = trace::FileType::kMp4}));
  }
  for (std::uint64_t u = 1; u <= 4; ++u) {
    buf.Add(MakeRecord({.t = static_cast<std::int64_t>(100 + u), .url = 2,
                        .user = u, .type = trace::FileType::kJpg}));
  }
  const auto result = ComputeEngagement(buf, "X");
  ASSERT_EQ(result.objects.size(), 2u);
  // Sorted by requests: object 1 first.
  EXPECT_EQ(result.objects[0].url_hash, 1u);
  EXPECT_EQ(result.objects[0].requests, 20u);
  EXPECT_EQ(result.objects[0].unique_users, 1u);
  EXPECT_EQ(result.objects[0].max_requests_per_user, 20u);
  EXPECT_EQ(result.objects[1].unique_users, 4u);
  EXPECT_DOUBLE_EQ(result.objects[1].RequestsPerUser(), 1.0);
  EXPECT_EQ(result.addicted_objects, 1u);
  EXPECT_EQ(result.viral_objects, 1u);
}

TEST(EngagementTest, Over10Fractions) {
  trace::TraceBuffer buf;
  for (int i = 0; i < 11; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 1, .user = 1,
                        .type = trace::FileType::kMp4}));
  }
  buf.Add(MakeRecord({.t = 100, .url = 2, .user = 1,
                      .type = trace::FileType::kMp4}));
  buf.Add(MakeRecord({.t = 101, .url = 3, .user = 1,
                      .type = trace::FileType::kJpg}));
  const auto result = ComputeEngagement(buf, "X");
  EXPECT_DOUBLE_EQ(result.video_frac_over_10, 0.5);
  EXPECT_DOUBLE_EQ(result.image_frac_over_10, 0.0);
}

TEST(EngagementTest, AddictedRatioConfigurable) {
  trace::TraceBuffer buf;
  for (int i = 0; i < 4; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 1, .user = 1}));
  }
  EXPECT_EQ(ComputeEngagement(buf, "X", 3.0).addicted_objects, 1u);
  EXPECT_EQ(ComputeEngagement(buf, "X", 5.0).addicted_objects, 0u);
}

TEST(EngagementTest, EmptyTraceSafe) {
  const auto result = ComputeEngagement(trace::TraceBuffer{}, "E");
  EXPECT_TRUE(result.objects.empty());
  EXPECT_DOUBLE_EQ(result.video_frac_over_10, 0.0);
}

// Closed loop (Figs. 13-14): the generator's addiction machinery produces
// video objects with far more repeat accesses than image objects, matching
// "at least 10% of video objects have more than 10 requests per unique
// user" vs. "<1% of image objects".
TEST(EngagementClosedLoopTest, VideoAddictionExceedsImage) {
  cdn::SimulatorConfig config;
  const auto v1 =
      testutil::SimulateSite(synth::SiteProfile::V1(0.02), 0, config, 5);
  const auto p1 =
      testutil::SimulateSite(synth::SiteProfile::P1(0.02), 1, config, 5);
  const auto ev = ComputeEngagement(v1.trace, "V-1");
  const auto ep = ComputeEngagement(p1.trace, "P-1");
  EXPECT_GT(ev.video_frac_over_10, 0.10);
  EXPECT_LT(ep.image_frac_over_10, 0.05);
  EXPECT_GT(ev.video_frac_over_10, ep.image_frac_over_10 * 3.0);
}

}  // namespace
}  // namespace atlas::analysis
