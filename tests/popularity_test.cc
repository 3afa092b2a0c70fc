#include "analysis/popularity.h"

#include <gtest/gtest.h>

#include "analysis_fixtures.h"
#include "scenario_fixtures.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

TEST(PopularityTest, SplitsByClass) {
  trace::TraceBuffer buf;
  for (int i = 0; i < 7; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 1, .type = trace::FileType::kMp4}));
  }
  buf.Add(MakeRecord({.t = 20, .url = 2, .type = trace::FileType::kJpg}));
  buf.Add(MakeRecord({.t = 21, .url = 2, .type = trace::FileType::kJpg}));
  const auto result = ComputePopularity(buf, "X");
  EXPECT_EQ(result.video_counts.count(), 1u);
  EXPECT_DOUBLE_EQ(result.video_counts.Median(), 7.0);
  EXPECT_EQ(result.image_counts.count(), 1u);
  EXPECT_DOUBLE_EQ(result.image_counts.Median(), 2.0);
  EXPECT_EQ(result.all_counts.count(), 2u);
}

TEST(PopularityTest, SingletonFraction) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .url = 1}));
  buf.Add(MakeRecord({.t = 1, .url = 2}));
  buf.Add(MakeRecord({.t = 2, .url = 2}));
  const auto result = ComputePopularity(buf, "X");
  // Half the objects were requested exactly once.
  EXPECT_DOUBLE_EQ(result.all_counts.Evaluate(1.0), 0.5);
}

TEST(PopularityTest, SkewMetricsOnUniformDemand) {
  trace::TraceBuffer buf;
  for (std::uint64_t obj = 1; obj <= 20; ++obj) {
    for (int i = 0; i < 10; ++i) {
      buf.Add(MakeRecord({.t = static_cast<std::int64_t>(obj * 100 + i),
                          .url = obj}));
    }
  }
  const auto result = ComputePopularity(buf, "X");
  EXPECT_NEAR(result.gini, 0.0, 1e-9);
  EXPECT_NEAR(result.top10_share, 0.1, 1e-9);
}

// Closed loop (Fig. 6): Zipf demand yields long-tailed counts — high top-10%
// share, positive Gini, and a power-law-ish tail.
TEST(PopularityClosedLoopTest, LongTailRecovered) {
  cdn::SimulatorConfig config;
  const auto sim =
      testutil::SimulateSite(synth::SiteProfile::V1(0.02), 0, config, 5);
  const auto result = ComputePopularity(sim.trace, "V-1");
  EXPECT_GT(result.top10_share, 0.4);
  EXPECT_GT(result.gini, 0.5);
  EXPECT_GT(result.power_law.alpha, 1.2);
  EXPECT_LT(result.power_law.ks, 0.25);
}

}  // namespace
}  // namespace atlas::analysis
