#include "analysis/report.h"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis_fixtures.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

trace::TraceBuffer SmallTrace() {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .url = 1, .user = 1,
                      .type = trace::FileType::kMp4, .size = 5000000,
                      .bytes = 2000000, .code = trace::kHttpPartialContent}));
  buf.Add(MakeRecord({.t = 1000, .url = 2, .user = 2,
                      .type = trace::FileType::kJpg, .size = 20000,
                      .bytes = 20000}));
  buf.Add(MakeRecord({.t = 2000, .url = 2, .user = 2,
                      .type = trace::FileType::kJpg, .size = 20000,
                      .bytes = 20000}));
  return buf;
}

TEST(ReportTest, DatasetSummaries) {
  const auto summary = ComputeDatasetSummary(SmallTrace(), "X-1");
  std::ostringstream out;
  RenderDatasetSummaries({&summary}, out);
  EXPECT_NE(out.str().find("X-1"), std::string::npos);
  EXPECT_NE(out.str().find("records"), std::string::npos);
  EXPECT_NE(out.str().find("3"), std::string::npos);
}

TEST(ReportTest, ContentAndTrafficComposition) {
  const auto comp = ComputeComposition(SmallTrace(), "X-1");
  std::ostringstream out;
  RenderContentComposition({&comp}, out);
  RenderTrafficComposition({&comp}, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("video"), std::string::npos);
  EXPECT_NE(text.find("(b) request size"), std::string::npos);
  EXPECT_NE(text.find("50.0%"), std::string::npos);  // 1 of 2 objects is video
}

TEST(ReportTest, HourlyVolumeHas24Rows) {
  const auto hv = ComputeHourlyVolume(SmallTrace(), "X-1");
  std::ostringstream out;
  RenderHourlyVolume({&hv}, out);
  // Rows labeled 0..23.
  EXPECT_NE(out.str().find("\n23"), std::string::npos);
  EXPECT_NE(out.str().find("peak hour"), std::string::npos);
}

TEST(ReportTest, SizeDistributionsMentionBimodality) {
  const auto sizes = ComputeSizeDistributions(SmallTrace(), "X-1");
  std::ostringstream out;
  RenderSizeDistributions({&sizes}, out);
  EXPECT_NE(out.str().find("image bimodal"), std::string::npos);
}

TEST(ReportTest, AgingRendersBothVariants) {
  const auto aging = ComputeAging(SmallTrace(), "X-1");
  std::ostringstream out;
  RenderAging({&aging}, out);
  EXPECT_NE(out.str().find("observability-corrected"), std::string::npos);
  EXPECT_NE(out.str().find("raw variant"), std::string::npos);
}

TEST(ReportTest, SessionsAndEngagement) {
  const auto sessions = ComputeSessions(SmallTrace(), "X-1");
  const auto engagement = ComputeEngagement(SmallTrace(), "X-1");
  std::ostringstream out;
  RenderSessions({&sessions}, out);
  RenderRepeatedAccess(engagement, out);
  RenderEngagement({&engagement}, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Fig. 11"), std::string::npos);
  EXPECT_NE(text.find("median IAT"), std::string::npos);
  EXPECT_NE(text.find("addicted objects"), std::string::npos);
}

TEST(ReportTest, CachingAndResponseCodes) {
  const auto caching = ComputeCaching(SmallTrace(), "X-1");
  std::ostringstream out;
  RenderCaching({&caching}, out);
  RenderResponseCodes({&caching}, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("overall hit ratio"), std::string::npos);
  EXPECT_NE(text.find("206"), std::string::npos);
  EXPECT_NE(text.find("304"), std::string::npos);
}

TEST(ReportTest, EmptySiteListsDoNotCrash) {
  std::ostringstream out;
  RenderDatasetSummaries({}, out);
  RenderContentComposition({}, out);
  RenderHourlyVolume({}, out);
  RenderDeviceComposition({}, out);
  RenderSizeDistributions({}, out);
  RenderPopularity({}, out);
  RenderAging({}, out);
  RenderSessions({}, out);
  RenderEngagement({}, out);
  RenderCaching({}, out);
  RenderResponseCodes({}, out);
  SUCCEED();
}

}  // namespace
}  // namespace atlas::analysis
