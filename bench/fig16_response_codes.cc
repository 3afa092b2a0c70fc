// Fig. 16: HTTP response codes — per-class counts of 200/204/206/304/403/416.
// 304s are rare for adult sites: incognito browsing discards the local
// caches that would otherwise revalidate.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv, "Fig. 16: HTTP response codes")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::CachingResult>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeCaching(t, name);
      });
  std::cout << "=== Fig. 16: HTTP response codes, scale=" << env.scale
            << " ===\n";
  analysis::RenderResponseCodes(bench::View(results), std::cout);
  std::cout << "\npaper: 200 and 206 dominate; 304 responses are a small "
               "fraction (incognito/private browsing)\n";
  return 0;
}
