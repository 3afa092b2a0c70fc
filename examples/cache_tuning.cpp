// Cache tuning for an adult-content operator.
//
// Uses the library the way a CDN capacity engineer would: pick a site
// profile, sweep cache policy and size for its actual workload, and print
// the operator-facing table (hit ratio, byte hit ratio, origin egress) plus
// a recommendation. Demonstrates: synth profiles, the delivery simulator,
// and the cache-policy zoo.
//
//   ./cache_tuning --site V-1 --scale 0.05
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "cdn/scenario.h"
#include "synth/site_profile.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/par.h"
#include "util/str.h"

namespace {

atlas::synth::SiteProfile ProfileByName(const std::string& name, double scale) {
  using atlas::synth::SiteProfile;
  if (name == "V-1") return SiteProfile::V1(scale);
  if (name == "V-2") return SiteProfile::V2(scale);
  if (name == "P-1") return SiteProfile::P1(scale);
  if (name == "P-2") return SiteProfile::P2(scale);
  if (name == "S-1") return SiteProfile::S1(scale);
  if (name == "N-1") return SiteProfile::NonAdult(scale);
  throw std::invalid_argument("unknown site: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atlas;
  util::Flags flags;
  flags.DefineString("site", "V-1", "site profile (V-1, V-2, P-1, P-2, S-1, N-1)");
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
  const auto profile = ProfileByName(flags.GetString("site"), scale);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed"));

  std::cout << "Cache tuning for " << profile.name << " ("
            << trace::ToString(profile.kind) << ", "
            << util::FormatCount(static_cast<double>(profile.total_requests))
            << " requests/week target)\n\n";
  std::cout << util::PadRight("policy", 9) << util::PadLeft("capacity", 11)
            << util::PadLeft("hit%", 8) << util::PadLeft("byte-hit%", 11)
            << util::PadLeft("origin egress", 15) << '\n';
  std::cout << std::string(54, '-') << '\n';

  double best_score = -1.0;
  std::string best_label;
  for (double cap_gb_at_full : {4.0, 16.0, 64.0}) {
    const auto capacity = static_cast<std::uint64_t>(cap_gb_at_full * 1e9 * scale);
    for (int k = 0; k < cdn::kNumPolicyKinds; ++k) {
      cdn::SimulatorConfig config;
      config.topology.edge_policy = static_cast<cdn::PolicyKind>(k);
      config.topology.edge_capacity_bytes = capacity;
      trace::CountingSink sink;
      const auto result = cdn::SimulateSite(profile, 0, config, seed, sink);
      const double hit = result.edge_stats.HitRatio();
      const double byte_hit = result.edge_stats.ByteHitRatio();
      std::cout << util::PadRight(
                       cdn::ToString(static_cast<cdn::PolicyKind>(k)), 9)
                << util::PadLeft(
                       util::FormatBytes(static_cast<double>(capacity)), 11)
                << util::PadLeft(util::FormatPercent(hit, 1), 8)
                << util::PadLeft(util::FormatPercent(byte_hit, 1), 11)
                << util::PadLeft(
                       util::FormatBytes(static_cast<double>(result.origin.bytes)),
                       15)
                << '\n';
      // Score: byte hit ratio per log-capacity (cheap configs preferred).
      const double score = byte_hit - 0.02 * std::log2(cap_gb_at_full);
      if (score > best_score) {
        best_score = score;
        best_label = std::string(cdn::ToString(static_cast<cdn::PolicyKind>(k))) +
                     " @ " + util::FormatBytes(static_cast<double>(capacity));
      }
    }
    std::cout << '\n';
  }
  std::cout << "recommended configuration: " << best_label << '\n';
  return 0;
}
