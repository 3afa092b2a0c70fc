// Fig. 2: traffic composition — request counts (a) and delivered bytes (b)
// per content class; video dominates byte volume wherever it exists.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv,
                         "Fig. 2: traffic composition (requests and bytes)")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::CompositionResult>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeComposition(t, name);
      });
  std::cout << "=== Fig. 2: traffic composition, scale=" << env.scale
            << " ===\n";
  analysis::RenderTrafficComposition(bench::View(results), std::cout);
  std::cout << "\npaper: V-1 3.1M video requests (99%); V-2 359K video vs "
               "657K image requests;\n       video bytes dominate (V-1 video "
               "alone: 258 GB)\n";
  return 0;
}
