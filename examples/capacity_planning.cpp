// Capacity planning across the CDN footprint.
//
// Uses the temporal model and the simulator the way a network planner
// would: run the whole five-site study, break traffic down per continent
// and per local hour, find each data center's peak hour, and size edge
// caches by trading capacity against origin egress. Demonstrates: scenario
// orchestration, per-DC statistics, timezone-aware load analysis.
//
//   ./capacity_planning --scale 0.05
#include <array>
#include <iostream>

#include "analysis/geo.h"
#include "cdn/scenario.h"
#include "synth/site_profile.h"
#include "synth/user_model.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/par.h"
#include "util/str.h"
#include "util/time.h"

int main(int argc, char** argv) {
  using namespace atlas;
  util::Flags flags;
  flags.DefineDouble("scale", 0.05, "population scale in (0, 1]");
  flags.DefineInt("seed", 42, "RNG seed");
  flags.DefineInt("threads", 0,
                  "worker threads (0 = hardware concurrency); output is "
                  "identical at any value");
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
  const double scale = flags.GetDouble("scale");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed"));

  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes =
      static_cast<std::uint64_t>(48e9 * scale) + (512ULL << 20);
  trace::TraceBuffer study;
  trace::BufferSink sink(study);
  cdn::StreamScenario(synth::SiteProfile::PaperAdultSites(scale), config, seed,
                      sink);

  // --- Per-continent load (analysis::geo) ---------------------------------
  const auto geo = analysis::ComputeGeo(study, "all-sites");
  std::cout << "=== Per-continent demand (week, scale=" << scale << ") ===\n";
  std::cout << util::PadRight("continent", 15) << util::PadLeft("requests", 11)
            << util::PadLeft("users", 9) << util::PadLeft("bytes", 11)
            << util::PadLeft("peak UTC hr", 13) << util::PadLeft("peak GB/h", 11)
            << '\n';
  std::cout << std::string(70, '-') << '\n';
  for (int c = 0; c < synth::kNumContinents; ++c) {
    const auto& stats = geo.of(static_cast<synth::Continent>(c));
    std::cout << util::PadRight(
                     synth::ToString(static_cast<synth::Continent>(c)), 15)
              << util::PadLeft(
                     util::FormatCount(static_cast<double>(stats.requests)), 11)
              << util::PadLeft(
                     util::FormatCount(static_cast<double>(stats.unique_users)),
                     9)
              << util::PadLeft(
                     util::FormatBytes(static_cast<double>(stats.bytes)), 11)
              << util::PadLeft(std::to_string(stats.PeakUtcHour()) + ":00", 13)
              << util::PadLeft(
                     util::FormatDouble(stats.PeakHourlyBytes(7) / 1e9, 2), 11)
              << '\n';
  }

  // --- Edge cache sizing --------------------------------------------------
  std::cout << "\n=== Edge sizing: capacity vs. origin egress ===\n";
  std::cout << util::PadRight("per-DC capacity", 17)
            << util::PadLeft("edge hit%", 11)
            << util::PadLeft("origin egress", 15)
            << util::PadLeft("egress saved", 14) << '\n';
  std::cout << std::string(57, '-') << '\n';
  std::uint64_t baseline_origin = 0;
  for (double gb_at_full : {8.0, 16.0, 32.0, 64.0, 128.0}) {
    cdn::SimulatorConfig sized = config;
    sized.topology.edge_capacity_bytes =
        static_cast<std::uint64_t>(gb_at_full * 1e9 * scale) + (64ULL << 20);
    trace::CountingSink counter;
    const auto sweep = cdn::StreamScenario(
        synth::SiteProfile::PaperAdultSites(scale), sized, seed, counter);
    const cdn::CacheStats& edge = sweep.totals.edge_stats;
    const std::uint64_t origin_bytes = sweep.totals.origin.bytes;
    if (baseline_origin == 0) baseline_origin = origin_bytes;
    const double saved =
        1.0 - static_cast<double>(origin_bytes) /
                  static_cast<double>(baseline_origin);
    std::cout << util::PadRight(
                     util::FormatBytes(
                         static_cast<double>(sized.topology.edge_capacity_bytes)),
                     17)
              << util::PadLeft(util::FormatPercent(edge.HitRatio(), 1), 11)
              << util::PadLeft(
                     util::FormatBytes(static_cast<double>(origin_bytes)), 15)
              << util::PadLeft(util::FormatPercent(saved, 1), 14) << '\n';
  }
  std::cout << "\n(capacities shown are scaled stand-ins for the "
               "full-population figures at --scale 1.0)\n";
  return 0;
}
