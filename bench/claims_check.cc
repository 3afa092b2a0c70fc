// claims_check — does this build still reproduce the paper?
//
// Runs the five-site study, the full analysis suite, and every encoded
// paper claim; prints one PASS/FAIL line per claim. Non-zero exit code on
// any failure, so it slots into CI.
#include "bench_common.h"

#include "analysis/claims.h"
#include "analysis/suite.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv,
                         "Verify every encoded paper claim (PASS/FAIL)")) {
    return 0;
  }
  analysis::SuiteConfig suite_config;
  suite_config.run_trend_clusters = false;  // Figs. 8-10 have their own bench
  trace::BufferBlockSource source(env.trace);
  analysis::AnalysisSuite suite(source, env.registry(), suite_config);
  std::cout << "=== Paper-claim verification, scale=" << env.scale
            << ", seed=" << env.seed << " ===\n\n";
  const auto claims = analysis::VerifyPaperClaims(suite);
  return analysis::RenderClaims(claims, std::cout) == 0 ? 0 : 1;
}
