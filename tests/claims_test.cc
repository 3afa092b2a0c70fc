#include "analysis/claims.h"

#include <gtest/gtest.h>

#include <sstream>

#include "scenario_fixtures.h"
#include "util/logging.h"

namespace atlas::analysis {
namespace {

TEST(ClaimsTest, AllClaimsPassOnDefaultStudy) {
  util::SetLogLevel(util::LogLevel::kWarn);
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 1ULL << 30;
  const auto study = testutil::RunPaperStudy(0.01, config, 42);
  SuiteConfig suite_config;
  suite_config.run_trend_clusters = false;
  trace::BufferBlockSource source(study.trace);
  const AnalysisSuite suite(source, study.registry(), suite_config);
  const auto claims = VerifyPaperClaims(suite);
  EXPECT_GT(claims.size(), 25u);
  for (const auto& c : claims) {
    EXPECT_TRUE(c.pass) << c.id << ": " << c.description << " (" << c.detail
                        << ")";
  }
  util::SetLogLevel(util::LogLevel::kInfo);
}

TEST(ClaimsTest, MissingSitesFailGracefully) {
  // A registry with only one site: the verifier reports a setup failure
  // instead of crashing.
  trace::PublisherRegistry registry;
  registry.Register("V-1", trace::SiteKind::kAdultVideo);
  trace::TraceBuffer empty;
  trace::LogRecord r;
  r.publisher_id = 0;
  empty.Add(r);
  SuiteConfig suite_config;
  suite_config.run_trend_clusters = false;
  trace::BufferBlockSource source(empty);
  const AnalysisSuite suite(source, registry, suite_config);
  const auto claims = VerifyPaperClaims(suite);
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_FALSE(claims[0].pass);
  EXPECT_EQ(claims[0].id, "setup");
}

TEST(ClaimsTest, RenderCountsFailures) {
  std::vector<ClaimResult> claims = {
      {"a", "first", true, "ok"},
      {"b", "second", false, "bad"},
      {"c", "third", true, ""},
  };
  std::ostringstream out;
  EXPECT_EQ(RenderClaims(claims, out), 1);
  EXPECT_NE(out.str().find("[PASS] a"), std::string::npos);
  EXPECT_NE(out.str().find("[FAIL] b"), std::string::npos);
  EXPECT_NE(out.str().find("2/3 claims reproduced"), std::string::npos);
  EXPECT_NE(out.str().find("1 FAILED"), std::string::npos);
}

}  // namespace
}  // namespace atlas::analysis
