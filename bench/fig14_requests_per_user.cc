// Fig. 14: CDF of repeated content access — requests per user per object;
// >= 10% of video objects exceed 10 requests/user, < 1% of image objects.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv,
                         "Fig. 14: requests-per-user CDFs")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::EngagementResult>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeEngagement(t, name);
      });
  std::cout << "=== Fig. 14: requests per user, scale=" << env.scale
            << " ===\n";
  analysis::RenderEngagement(bench::View(results), std::cout);
  std::cout << "\npaper: >= 10% of video objects get > 10 requests per unique "
               "user; < 1% of image objects do\n";
  return 0;
}
