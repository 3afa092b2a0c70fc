// Fig. 9: cluster medoids for the V-2 adult website — normalized request
// count time series (Sat..Fri) of each cluster's most central video object,
// with point-wise standard deviations.
#include "bench_common.h"

#include "analysis/trend_cluster.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  env.flags.DefineInt("k", 5, "number of flat clusters to cut");
  if (!bench::SetUpStudy(env, argc, argv, "Fig. 9: V-2 cluster medoids")) {
    return 0;
  }
  analysis::TrendClusterConfig config;
  config.k = static_cast<std::size_t>(env.flags.GetInt("k"));
  config.content_class = trace::ContentClass::kVideo;
  const auto result =
      analysis::ComputeTrendClusters(env.SiteTrace("V-2"), "V-2", config);
  std::cout << "=== Fig. 9: V-2 video cluster medoids, scale=" << env.scale
            << " ===\n";
  analysis::RenderClusterMedoids(result, std::cout);
  std::cout << "\npaper: diurnal-A medoid oscillates all week; long-lived "
               "peaks day 1 and decays diurnally over days;\n       "
               "short-lived peaks on arrival and dies within hours\n";
  return 0;
}
