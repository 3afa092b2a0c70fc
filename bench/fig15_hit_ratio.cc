// Fig. 15: CDN cache hit ratios — per-object hit-ratio CDFs for image and
// video objects, aggregate ratios, and the popularity/hit-ratio correlation.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv, "Fig. 15: CDN cache hit ratios")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::CachingResult>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeCaching(t, name);
      });
  std::cout << "=== Fig. 15: cache hit ratios (" << env.flags.GetString("policy")
            << " edges), scale=" << env.scale << " ===\n";
  analysis::RenderCaching(bench::View(results), std::cout);
  std::cout << "\npaper: image objects cache better than video chunks; "
               "popularity/hit-ratio correlation > 0.9;\n       aggregate "
               "hit ratios 80-90%\n";
  return 0;
}
