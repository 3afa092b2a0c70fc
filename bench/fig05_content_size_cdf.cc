// Fig. 5: content size CDFs — video objects mostly > 1 MB, image objects
// < 1 MB with bimodal thumbnail/full-resolution populations.
#include "bench_common.h"

#include <fstream>

#include "analysis/csv_export.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  env.flags.DefineString("csv", "", "write the CDF series to this CSV file");
  if (!bench::SetUpStudy(env, argc, argv, "Fig. 5: content size CDFs")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::SizeDistributions>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeSizeDistributions(t, name);
      });
  std::cout << "=== Fig. 5: content size distributions, scale=" << env.scale
            << " ===\n";
  analysis::RenderSizeDistributions(bench::View(results), std::cout);
  std::cout << "\npaper: video objects mostly > 1 MB (P-2 largest); image "
               "objects < 1 MB, bimodal\n";
  if (const std::string path = env.flags.GetString("csv"); !path.empty()) {
    std::vector<std::pair<std::string, const stats::Ecdf*>> named;
    for (const auto& s : results) {
      named.emplace_back(s.site + "/video", &s.video);
      named.emplace_back(s.site + "/image", &s.image);
    }
    std::ofstream csv(path);
    analysis::WriteCdfCsv(named, csv);
    std::cout << "series written to " << path << '\n';
  }
  return 0;
}
