#include "analysis/sizes.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis_fixtures.h"
#include "scenario_fixtures.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

TEST(SizeDistributionsTest, PerObjectNotPerRequest) {
  trace::TraceBuffer buf;
  // One 10 MB video requested 100 times must contribute a single sample.
  for (int i = 0; i < 100; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 1, .type = trace::FileType::kMp4,
                        .size = 10000000}));
  }
  buf.Add(MakeRecord({.t = 200, .url = 2, .type = trace::FileType::kFlv,
                      .size = 5000000}));
  const auto result = ComputeSizeDistributions(buf, "X");
  EXPECT_EQ(result.video.count(), 2u);
  EXPECT_DOUBLE_EQ(result.video.Median(), 7500000.0);
}

TEST(SizeDistributionsTest, SplitsByClass) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.url = 1, .type = trace::FileType::kMp4, .size = 5000000}));
  buf.Add(MakeRecord({.url = 2, .type = trace::FileType::kJpg, .size = 50000}));
  buf.Add(MakeRecord({.url = 3, .type = trace::FileType::kCss, .size = 2000}));
  const auto result = ComputeSizeDistributions(buf, "X");
  EXPECT_EQ(result.video.count(), 1u);
  EXPECT_EQ(result.image.count(), 1u);
  EXPECT_EQ(result.other.count(), 1u);
  EXPECT_DOUBLE_EQ(result.VideoAboveMb(), 1.0);
  EXPECT_DOUBLE_EQ(result.ImageBelowMb(), 1.0);
}

TEST(SizeDistributionsTest, EmptyClassesSafe) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.url = 1, .type = trace::FileType::kJpg}));
  const auto result = ComputeSizeDistributions(buf, "X");
  EXPECT_TRUE(result.video.empty());
  EXPECT_DOUBLE_EQ(result.VideoAboveMb(), 0.0);
}

TEST(ImageBimodalityTest, DetectsTwoPopulations) {
  util::Rng rng(3);
  stats::Ecdf bimodal;
  for (int i = 0; i < 3000; ++i) {
    bimodal.Add(rng.NextLogNormal(std::log(8e3), 0.4));
    bimodal.Add(rng.NextLogNormal(std::log(5e5), 0.4));
  }
  bimodal.Finalize();
  EXPECT_TRUE(ImageSizesAreBimodal(bimodal));

  stats::Ecdf unimodal;
  for (int i = 0; i < 6000; ++i) {
    unimodal.Add(rng.NextLogNormal(std::log(5e4), 0.4));
  }
  unimodal.Finalize();
  EXPECT_FALSE(ImageSizesAreBimodal(unimodal));
}

TEST(ImageBimodalityTest, TooFewSamplesIsFalse) {
  stats::Ecdf e;
  e.Add(1e3);
  e.Add(1e6);
  e.Finalize();
  EXPECT_FALSE(ImageSizesAreBimodal(e));
}

// Closed loop (Fig. 5): video mostly >1MB, images mostly <1MB, image sizes
// bimodal.
TEST(SizeClosedLoopTest, PaperShapeHolds) {
  cdn::SimulatorConfig config;
  const auto result =
      testutil::SimulateSite(synth::SiteProfile::V2(0.02), 0, config, 7);
  const auto sizes = ComputeSizeDistributions(result.trace, "V-2");
  EXPECT_GT(sizes.VideoAboveMb(), 0.8);
  EXPECT_GT(sizes.ImageBelowMb(), 0.8);
  EXPECT_TRUE(ImageSizesAreBimodal(sizes.image));
}

TEST(SizeClosedLoopTest, P2HasLargestVideos) {
  // Fig. 5(a): P-2 has the largest video objects.
  cdn::SimulatorConfig config;
  const auto p2 =
      testutil::SimulateSite(synth::SiteProfile::P2(0.05), 0, config, 9);
  const auto v2 =
      testutil::SimulateSite(synth::SiteProfile::V2(0.02), 1, config, 9);
  const auto sp2 = ComputeSizeDistributions(p2.trace, "P-2");
  const auto sv2 = ComputeSizeDistributions(v2.trace, "V-2");
  if (!sp2.video.empty() && !sv2.video.empty()) {
    EXPECT_GT(sp2.video.Median(), sv2.video.Median());
  }
}

}  // namespace
}  // namespace atlas::analysis
