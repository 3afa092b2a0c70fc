// Fig. 1: content composition of five adult websites — distinct objects per
// class (video / image / other) stored on the CDN.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv,
                         "Fig. 1: content composition (objects by class)")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::CompositionResult>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeComposition(t, name);
      });
  std::cout << "=== Fig. 1: content composition, scale=" << env.scale
            << " ===\n";
  analysis::RenderContentComposition(bench::View(results), std::cout);
  std::cout << "\npaper: V-1 98% video | V-2 84% image / 15% video | "
               "P-1, P-2, S-1 ~99% image\n";
  return 0;
}
