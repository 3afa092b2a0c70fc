// Fig. 8: DTW clustering dendrograms — cluster shares with shape labels for
// V-2 (video) and P-2 (image), the two panels the paper shows.
#include "bench_common.h"

#include "analysis/trend_cluster.h"
#include "util/str.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  env.flags.DefineInt("k", 5, "number of flat clusters to cut");
  env.flags.DefineInt("min-requests", 30, "min requests per clustered object");
  if (!bench::SetUpStudy(env, argc, argv,
                         "Fig. 8: DTW dendrograms / cluster shares")) {
    return 0;
  }
  analysis::TrendClusterConfig config;
  config.k = static_cast<std::size_t>(env.flags.GetInt("k"));
  config.min_requests =
      static_cast<std::uint64_t>(env.flags.GetInt("min-requests"));

  std::cout << "=== Fig. 8: popularity-trend clusters, scale=" << env.scale
            << " ===\n\n";
  const struct {
    const char* site;
    trace::ContentClass cls;
  } kPanels[] = {{"V-2", trace::ContentClass::kVideo},
                 {"P-2", trace::ContentClass::kImage}};
  for (const auto& panel : kPanels) {
    config.content_class = panel.cls;
    const auto result = analysis::ComputeTrendClusters(
        env.SiteTrace(panel.site), panel.site, config);
    analysis::RenderTrendClusters(result, std::cout);
    std::cout << "member-level shapes: ";
    for (int p = 0; p < synth::kNumPatternTypes; ++p) {
      const auto type = static_cast<synth::PatternType>(p);
      std::cout << synth::ToString(type) << "="
                << util::FormatPercent(result.MemberShareOf(type), 0) << " ";
    }
    std::cout << "\n\n";
  }
  std::cout << "paper: (a) V-2 video: 22%+11% diurnal, 20% long-lived, 14% "
               "short-lived, 33% outliers\n       (b) P-2 image: 61% diurnal, "
               "25% long-lived, 14% flash-crowd\n";
  return 0;
}
