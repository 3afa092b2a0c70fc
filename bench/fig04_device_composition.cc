// Fig. 4: device type composition — share of unique users on Desktop /
// Android / iOS / Misc per site, recovered by re-parsing user-agent strings.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  if (!bench::SetUpStudy(env, argc, argv,
                         "Fig. 4: device type composition")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::DeviceComposition>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeDeviceComposition(t, name);
      });
  std::cout << "=== Fig. 4: device type composition, scale=" << env.scale
            << " ===\n";
  analysis::RenderDeviceComposition(bench::View(results), std::cout);
  std::cout << "\npaper: desktop dominates everywhere; V-2 > 95% desktop; "
               "S-1 > 1/3 smartphone+misc\n";
  return 0;
}
