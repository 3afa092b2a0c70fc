// End-to-end closed-loop validation: run the whole five-site study at small
// scale and check the paper's headline findings hold in the regenerated
// figures — the same checks EXPERIMENTS.md reports at full scale.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/suite.h"
#include "scenario_fixtures.h"
#include "trace/stream.h"
#include "util/logging.h"

namespace atlas {
namespace {

class PaperStudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::SetLogLevel(util::LogLevel::kWarn);
    cdn::SimulatorConfig config;
    config.topology.edge_capacity_bytes = 1ULL << 30;
    study_ = new testutil::BufferedScenario(
        testutil::RunPaperStudy(0.01, config, 42));
    analysis::SuiteConfig suite_config;
    suite_config.run_trend_clusters = false;  // covered by trend tests
    trace::BufferBlockSource source(study_->trace);
    suite_ = new analysis::AnalysisSuite(source, study_->registry(),
                                         suite_config);
  }
  static void TearDownTestSuite() {
    delete suite_;
    delete study_;
    suite_ = nullptr;
    study_ = nullptr;
    util::SetLogLevel(util::LogLevel::kInfo);
  }

  static testutil::BufferedScenario* study_;
  static analysis::AnalysisSuite* suite_;
};

testutil::BufferedScenario* PaperStudyTest::study_ = nullptr;
analysis::AnalysisSuite* PaperStudyTest::suite_ = nullptr;

TEST_F(PaperStudyTest, AllFiveSitesAnalyzed) {
  ASSERT_EQ(suite_->sites().size(), 5u);
  EXPECT_EQ(suite_->sites()[0].site, "V-1");
  EXPECT_EQ(suite_->sites()[4].site, "S-1");
  EXPECT_THROW(suite_->site("nope"), std::out_of_range);
}

// Fig. 1: catalog mixes.
TEST_F(PaperStudyTest, ContentComposition) {
  const auto& v1 = suite_->site("V-1").composition;
  EXPECT_GT(v1.ObjectShare(trace::ContentClass::kVideo), 0.9);
  for (const char* name : {"P-1", "P-2", "S-1"}) {
    EXPECT_GT(suite_->site(name).composition.ObjectShare(
                  trace::ContentClass::kImage),
              0.9)
        << name;
  }
  const auto& v2 = suite_->site("V-2").composition;
  EXPECT_GT(v2.ObjectShare(trace::ContentClass::kImage), 0.7);
  EXPECT_GT(v2.ObjectShare(trace::ContentClass::kVideo), 0.08);
}

// Fig. 2: request and byte mixes; video dominates bytes wherever present.
TEST_F(PaperStudyTest, TrafficComposition) {
  const auto& v1 = suite_->site("V-1").composition;
  EXPECT_GT(v1.RequestShare(trace::ContentClass::kVideo), 0.9);
  const auto& v2 = suite_->site("V-2").composition;
  // V-2 serves more image requests than video requests (657K vs 359K)...
  EXPECT_GT(v2.requests[1], v2.requests[0]);
  // ...but video still dominates delivered bytes.
  EXPECT_GT(v2.ByteShare(trace::ContentClass::kVideo), 0.5);
}

// Fig. 3: adult sites are not classically diurnal; V-1 peaks off-evening.
TEST_F(PaperStudyTest, TemporalPhase) {
  const auto& v1 = suite_->site("V-1").hourly;
  // Peak in the late-night/early-morning band (22:00-08:00 local).
  const int peak = v1.PeakHour();
  EXPECT_TRUE(peak >= 22 || peak <= 8) << "V-1 peak hour " << peak;
}

// Fig. 4: device ordering.
TEST_F(PaperStudyTest, DeviceComposition) {
  EXPECT_GT(suite_->site("S-1").devices.MobileShare(), 0.25);
  EXPECT_GT(suite_->site("V-2").devices.user_share[0], 0.9);
  EXPECT_GT(suite_->site("S-1").devices.MobileShare(),
            suite_->site("V-2").devices.MobileShare());
  // Desktop dominates everywhere (Fig. 4).
  for (const auto& site : suite_->sites()) {
    EXPECT_GT(site.devices.user_share[0], 0.5) << site.site;
  }
}

// Fig. 5: size families.
TEST_F(PaperStudyTest, SizeDistributions) {
  for (const char* name : {"V-1", "V-2"}) {
    EXPECT_GT(suite_->site(name).sizes.VideoAboveMb(), 0.7) << name;
  }
  for (const auto& site : suite_->sites()) {
    if (!site.sizes.image.empty()) {
      EXPECT_GT(site.sizes.ImageBelowMb(), 0.8) << site.site;
    }
  }
}

// Fig. 6: long-tailed popularity everywhere.
TEST_F(PaperStudyTest, PopularitySkew) {
  for (const auto& site : suite_->sites()) {
    EXPECT_GT(site.popularity.top10_share, 0.3) << site.site;
    EXPECT_GT(site.popularity.gini, 0.4) << site.site;
  }
}

// Fig. 7: declining fraction requested with age.
TEST_F(PaperStudyTest, ContentAging) {
  for (const auto& site : suite_->sites()) {
    EXPECT_DOUBLE_EQ(site.aging.fraction_requested[0], 1.0) << site.site;
    EXPECT_LT(site.aging.fraction_requested[6], 0.9) << site.site;
  }
}

// Figs. 11-12: video sites have shorter IATs than image sites.
TEST_F(PaperStudyTest, SessionOrdering) {
  const double v1_iat = suite_->site("V-1").sessions.MedianIatSeconds();
  const double p1_iat = suite_->site("P-1").sessions.MedianIatSeconds();
  const double p2_iat = suite_->site("P-2").sessions.MedianIatSeconds();
  EXPECT_LT(v1_iat, 600.0);
  EXPECT_GT(p1_iat, 1800.0);
  EXPECT_GT(p2_iat, 1800.0);
}

// Figs. 13-14: video is addictive, images are not.
TEST_F(PaperStudyTest, Addiction) {
  EXPECT_GT(suite_->site("V-1").engagement.video_frac_over_10, 0.08);
  EXPECT_LT(suite_->site("P-1").engagement.image_frac_over_10, 0.05);
}

// Figs. 15-16: caching behaviour.
TEST_F(PaperStudyTest, Caching) {
  for (const auto& site : suite_->sites()) {
    // Hit ratio / popularity correlation positive everywhere.
    EXPECT_GT(site.caching.popularity_hit_correlation, 0.2) << site.site;
    // 304s are a tiny share (incognito browsing).
    EXPECT_LT(site.caching.NotModifiedShare(), 0.10) << site.site;
  }
  // Video panels are dominated by 206 for the video sites.
  const auto& v1_codes = suite_->site("V-1").caching.video_response_codes;
  ASSERT_TRUE(v1_codes.count(trace::kHttpPartialContent));
  const auto it200 = v1_codes.find(trace::kHttpOk);
  const std::uint64_t ok = it200 == v1_codes.end() ? 0 : it200->second;
  EXPECT_GT(v1_codes.at(trace::kHttpPartialContent), ok);
}

// The full report renders without crashing and mentions every figure.
TEST_F(PaperStudyTest, ReportRenders) {
  std::ostringstream out;
  suite_->Render(out);
  const std::string text = out.str();
  for (const char* needle :
       {"Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
        "Figs. 11-12", "Figs. 13-14", "Fig. 15", "Fig. 16", "V-1", "S-1"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

// The merged trace round-trips through binary serialization.
TEST_F(PaperStudyTest, TraceSerializationRoundTrip) {
  const auto& merged = study_->trace;
  std::stringstream stream;
  trace::WriteV2(merged, stream);
  trace::TraceReader reader(stream);
  const auto loaded = trace::ReadAllRecords(reader);
  ASSERT_EQ(loaded.size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); i += 1009) {
    EXPECT_EQ(loaded[i], merged[i]);
  }
}

}  // namespace
}  // namespace atlas
