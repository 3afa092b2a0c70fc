// Fig. 6: content popularity CDFs — long-tailed request-count distributions
// for every site, plus the skewness summaries.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv, "Fig. 6: content popularity CDFs")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::PopularityResult>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputePopularity(t, name);
      });
  std::cout << "=== Fig. 6: content popularity, scale=" << env.scale
            << " ===\n";
  analysis::RenderPopularity(bench::View(results), std::cout);
  std::cout << "\npaper: long-tail distributions for all adult websites — a "
               "small fraction of objects is very popular\n";
  return 0;
}
