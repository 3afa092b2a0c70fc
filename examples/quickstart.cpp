// Quickstart: generate a small synthetic week of adult-CDN traffic for the
// paper's five sites, run the full analysis suite, and print the report.
//
//   ./quickstart --scale 0.02 --seed 42
//
// `--scale 1.0` reproduces the paper-sized study (~5M log records).
#include <fstream>
#include <iostream>

#include "analysis/suite.h"
#include "cdn/scenario.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/par.h"

int main(int argc, char** argv) {
  using namespace atlas;
  util::Flags flags;
  flags.DefineDouble("scale", 0.02, "population scale, (0, 1]");
  flags.DefineInt("seed", 42, "RNG seed");
  flags.DefineInt("threads", 0,
                  "worker threads (0 = hardware concurrency); output is "
                  "identical at any value");
  flags.DefineBool("clusters", true, "run DTW trend clustering (Figs. 8-10)");
  flags.DefineString("save-trace", "",
                     "optional path to dump the trace (v2 block format)");
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
  util::SetDefaultThreads(static_cast<int>(flags.GetInt("threads")));

  cdn::SimulatorConfig config;
  // Edge capacity scales with the study so hit ratios stay in the paper's
  // 80-90% band at any --scale.
  config.topology.edge_capacity_bytes = static_cast<std::uint64_t>(
      64e9 * flags.GetDouble("scale")) + (1ULL << 30);

  // The study's merged, time-sorted trace, kept in memory: it is small at
  // these scales, and both the trace file and the analysis read it.
  trace::TraceBuffer study;
  trace::BufferSink sink(study);
  const auto result = cdn::StreamScenario(
      synth::SiteProfile::PaperAdultSites(flags.GetDouble("scale")), config,
      static_cast<std::uint64_t>(flags.GetInt("seed")), sink);

  if (const std::string path = flags.GetString("save-trace"); !path.empty()) {
    std::ofstream stream(path, std::ios::binary);
    if (!stream) {
      std::cerr << "cannot open " << path << '\n';
      return 1;
    }
    trace::TraceWriter writer(stream);
    writer.Append(study.records());
    writer.Finish();
    std::cout << "trace written to " << path << " (" << writer.written()
              << " records, v2)\n";
  }

  analysis::SuiteConfig suite_config;
  suite_config.run_trend_clusters = flags.GetBool("clusters");
  trace::BufferBlockSource source(study);
  analysis::AnalysisSuite suite(source, result.registry, suite_config);
  suite.Render(std::cout);
  return 0;
}
