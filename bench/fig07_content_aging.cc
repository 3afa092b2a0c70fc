// Fig. 7: content injection & aging — fraction of objects requested at each
// age (days); ~20% go silent after day 3, ~10% stay requested all week.
#include "bench_common.h"

#include <fstream>

#include "analysis/csv_export.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  env.flags.DefineString("csv", "", "write the aging series to this CSV file");
  if (!bench::SetUpStudy(env, argc, argv, "Fig. 7: content aging")) {
    return 0;
  }
  const auto results = bench::PerSite<analysis::AgingResult>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeAging(t, name);
      });
  std::cout << "=== Fig. 7: content aging, scale=" << env.scale << " ===\n";
  analysis::RenderAging(bench::View(results), std::cout);
  std::cout << "\npaper: declining fraction requested with age; ~20% of "
               "objects not requested after 3 days;\n       ~10% requested "
               "throughout the week\n";
  if (const std::string path = env.flags.GetString("csv"); !path.empty()) {
    std::ofstream csv(path);
    analysis::WriteAgingCsv(results, csv);
    std::cout << "series written to " << path << '\n';
  }
  return 0;
}
