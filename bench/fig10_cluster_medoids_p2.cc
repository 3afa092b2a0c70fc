// Fig. 10: cluster medoids for the P-2 adult website — image-object panel.
#include "bench_common.h"

#include "analysis/trend_cluster.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  env.flags.DefineInt("k", 5, "number of flat clusters to cut");
  if (!bench::SetUpStudy(env, argc, argv, "Fig. 10: P-2 cluster medoids")) {
    return 0;
  }
  analysis::TrendClusterConfig config;
  config.k = static_cast<std::size_t>(env.flags.GetInt("k"));
  config.content_class = trace::ContentClass::kImage;
  const auto result =
      analysis::ComputeTrendClusters(env.SiteTrace("P-2"), "P-2", config);
  std::cout << "=== Fig. 10: P-2 image cluster medoids, scale=" << env.scale
            << " ===\n";
  analysis::RenderClusterMedoids(result, std::cout);
  std::cout << "\npaper: P-2 images split into diurnal, long-lived and "
               "flash-crowd medoids\n";
  return 0;
}
