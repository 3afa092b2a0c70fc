// Popularity-trend exploration for one site.
//
// Walks the full Figs. 8-10 pipeline interactively: builds per-object hourly
// series, clusters them with DTW + agglomerative linkage, prints the
// dendrogram cluster shares, the silhouette across candidate k values, and
// each cluster's medoid as an ASCII sparkline with its shape label.
// Demonstrates: trend clustering, dendrogram cutting, shape classification.
//
//   ./popularity_explorer --site V-2 --class video --scale 0.05 --max-k 8
#include <iostream>

#include "analysis/report.h"
#include "analysis/trend_cluster.h"
#include "cdn/scenario.h"
#include "cluster/shape.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/par.h"
#include "util/str.h"

int main(int argc, char** argv) {
  using namespace atlas;
  util::Flags flags;
  flags.DefineString("site", "V-2", "site to explore (V-1, V-2, P-1, P-2, S-1)");
  flags.DefineString("class", "video", "content class: video or image");
  flags.DefineDouble("scale", 0.05, "population scale in (0, 1]");
  flags.DefineInt("seed", 42, "RNG seed");
  flags.DefineInt("threads", 0,
                  "worker threads (0 = hardware concurrency); output is "
                  "identical at any value");
  flags.DefineInt("max-k", 8, "largest k to evaluate");
  flags.DefineInt("min-requests", 30, "min requests per clustered object");
  try {
    flags.Parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage(argv[0]);
    return 0;
  }
  util::SetLogLevel(util::LogLevel::kWarn);
  util::SetDefaultThreads(static_cast<int>(flags.GetInt("threads")));

  cdn::SimulatorConfig config;
  trace::TraceBuffer study;
  trace::BufferSink sink(study);
  const auto study_run = cdn::StreamScenario(
      synth::SiteProfile::PaperAdultSites(flags.GetDouble("scale")), config,
      static_cast<std::uint64_t>(flags.GetInt("seed")), sink);

  const std::string site = flags.GetString("site");
  const auto site_id = study_run.registry.FindByName(site);
  if (!site_id) {
    std::cerr << "unknown site: " << site << '\n';
    return 1;
  }
  const trace::TraceBuffer site_trace = study.FilterByPublisher(*site_id);

  analysis::TrendClusterConfig tc;
  tc.content_class = flags.GetString("class") == "image"
                         ? trace::ContentClass::kImage
                         : trace::ContentClass::kVideo;
  tc.min_requests = static_cast<std::uint64_t>(flags.GetInt("min-requests"));

  // Sweep k and report silhouettes, then show the best clustering in full.
  std::cout << "silhouette by k for " << site << " "
            << trace::ToString(tc.content_class) << " objects:\n";
  std::size_t best_k = 2;
  double best_sil = -2.0;
  for (std::size_t k = 2; k <= static_cast<std::size_t>(flags.GetInt("max-k"));
       ++k) {
    tc.k = k;
    const auto result = analysis::ComputeTrendClusters(site_trace, site, tc);
    if (result.clustered_objects < k) break;
    std::cout << "  k=" << k << "  silhouette="
              << util::FormatDouble(result.silhouette, 3) << '\n';
    if (result.silhouette > best_sil) {
      best_sil = result.silhouette;
      best_k = k;
    }
  }

  tc.k = best_k;
  const auto result = analysis::ComputeTrendClusters(site_trace, site, tc);
  std::cout << "\nbest k=" << best_k << ":\n";
  analysis::RenderTrendClusters(result, std::cout);
  std::cout << '\n';
  analysis::RenderClusterMedoids(result, std::cout);

  std::cout << "\nper-cluster medoid shape features:\n";
  for (const auto& c : result.clusters) {
    const auto f = cluster::ExtractShapeFeatures(c.medoid_series);
    std::cout << "  " << util::PadRight(synth::ToString(c.shape), 14)
              << cluster::DescribeShape(f) << '\n';
  }
  return 0;
}
