#include "analysis/composition.h"

#include <gtest/gtest.h>

#include "analysis_fixtures.h"
#include "scenario_fixtures.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

TEST(CompositionTest, CountsObjectsOncePerUrl) {
  trace::TraceBuffer buf;
  // Object 1 (video) requested 3 times; object 2 (image) once.
  for (int i = 0; i < 3; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 1, .type = trace::FileType::kMp4,
                        .bytes = 500}));
  }
  buf.Add(MakeRecord({.t = 9, .url = 2, .type = trace::FileType::kJpg,
                      .bytes = 100}));
  const auto result = ComputeComposition(buf, "X");
  EXPECT_EQ(result.objects[0], 1u);   // video
  EXPECT_EQ(result.objects[1], 1u);   // image
  EXPECT_EQ(result.requests[0], 3u);
  EXPECT_EQ(result.requests[1], 1u);
  EXPECT_EQ(result.bytes[0], 1500u);
  EXPECT_EQ(result.bytes[1], 100u);
  EXPECT_DOUBLE_EQ(result.ObjectShare(trace::ContentClass::kVideo), 0.5);
  EXPECT_DOUBLE_EQ(result.RequestShare(trace::ContentClass::kVideo), 0.75);
  EXPECT_DOUBLE_EQ(result.ByteShare(trace::ContentClass::kVideo),
                   1500.0 / 1600.0);
}

TEST(CompositionTest, EmptyTraceSafe) {
  const auto result = ComputeComposition(trace::TraceBuffer{}, "E");
  EXPECT_EQ(result.TotalObjects(), 0u);
  EXPECT_DOUBLE_EQ(result.ObjectShare(trace::ContentClass::kImage), 0.0);
}

TEST(CompositionTest, OtherClassCounted) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.url = 3, .type = trace::FileType::kJs}));
  const auto result = ComputeComposition(buf, "X");
  EXPECT_EQ(result.objects[2], 1u);
}

TEST(DatasetSummaryTest, Fields) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 100, .url = 1, .user = 1, .bytes = 10}));
  buf.Add(MakeRecord({.t = 900, .url = 2, .user = 2, .bytes = 30}));
  buf.Add(MakeRecord({.t = 500, .url = 1, .user = 1, .bytes = 5}));
  const auto s = ComputeDatasetSummary(buf, "X");
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.users, 2u);
  EXPECT_EQ(s.objects, 2u);
  EXPECT_EQ(s.bytes, 45u);
  EXPECT_EQ(s.start_ms, 100);
  EXPECT_EQ(s.end_ms, 900);
}

// Closed loop: the generator's catalog class mix must be recovered from the
// simulated trace within sampling error (Fig. 1 validation).
TEST(CompositionClosedLoopTest, V1IsVideoDominated) {
  cdn::SimulatorConfig config;
  const auto result =
      testutil::SimulateSite(synth::SiteProfile::V1(0.01), 0, config, 5);
  const auto comp = ComputeComposition(result.trace, "V-1");
  // Fig. 2: ~99% of V-1 requests and bytes are video.
  EXPECT_GT(comp.RequestShare(trace::ContentClass::kVideo), 0.9);
  EXPECT_GT(comp.ByteShare(trace::ContentClass::kVideo), 0.95);
}

TEST(CompositionClosedLoopTest, P1IsImageDominated) {
  cdn::SimulatorConfig config;
  const auto result =
      testutil::SimulateSite(synth::SiteProfile::P1(0.01), 0, config, 5);
  const auto comp = ComputeComposition(result.trace, "P-1");
  EXPECT_GT(comp.RequestShare(trace::ContentClass::kImage), 0.9);
  EXPECT_GT(comp.ObjectShare(trace::ContentClass::kImage), 0.95);
}

}  // namespace
}  // namespace atlas::analysis
