// Fig. 3: hourly traffic volume timeseries in users' local time. Adult
// sites deviate from the classic 7-11pm web peak; V-1 peaks late-night.
#include "bench_common.h"

#include <fstream>

#include "analysis/csv_export.h"
#include "cdn/scenario.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::BenchEnv env;
  env.flags.DefineString("csv", "", "write the figure series to this CSV file");
  if (!bench::SetUpStudy(env, argc, argv,
                         "Fig. 3: hourly traffic volume (local time)")) {
    return 0;
  }
  auto results = bench::PerSite<analysis::HourlyVolume>(
      env, [](const trace::TraceBuffer& t, const std::string& name) {
        return analysis::ComputeHourlyVolume(t, name);
      });
  // Contrast series: the non-adult control with the classic evening peak.
  trace::TraceBuffer control;
  trace::BufferSink control_sink(control);
  cdn::SimulateSite(synth::SiteProfile::NonAdult(env.scale), 99, env.config,
                    env.seed + 1, control_sink);
  results.push_back(analysis::ComputeHourlyVolume(control, "N-1"));

  std::cout << "=== Fig. 3: hourly traffic volume (% of weekly, local time), "
               "scale=" << env.scale << " ===\n";
  analysis::RenderHourlyVolume(bench::View(results), std::cout);
  std::cout << "\npaper: V-1 peaks late-night/early-morning, opposite the "
               "typical 7-11pm diurnal peak;\n       other adult sites vary "
               "less but still differ from classic diurnal patterns\n";
  if (const std::string path = env.flags.GetString("csv"); !path.empty()) {
    std::ofstream csv(path);
    analysis::WriteHourlyVolumeCsv(results, csv);
    std::cout << "series written to " << path << '\n';
  }
  return 0;
}
