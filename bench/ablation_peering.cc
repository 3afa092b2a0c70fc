// Ablation: cooperative (peer) cache fill across the CDN footprint.
//
// Extends §V's "push copies of popular adult objects closer to end-users":
// instead of proactively pushing, let an edge miss be filled from a sibling
// data center that already holds the object, falling back to the origin.
// Sweep edge capacity and report how much origin egress peering removes —
// most valuable exactly when edges are small and the long tail churns.
#include <iostream>

#include "bench_common.h"
#include "cdn/scenario.h"
#include "energy/model.h"
#include "util/str.h"
#include "util/time.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::AblationEnv env;
  if (!bench::SetUpAblation(env, argc, argv,
                            "Cooperative peer-fill sweep (five sites)")) {
    return 0;
  }
  const double scale = env.scale;
  const auto seed = env.seed;

  std::cout << "=== Ablation: cooperative peer fill (five sites, scale="
            << scale << ") ===\n";
  std::cout << util::PadRight("per-DC capacity", 17)
            << util::PadRight("peering", 9) << util::PadLeft("hit%", 8)
            << util::PadLeft("peer fills", 12) << util::PadLeft("origin", 11)
            << util::PadLeft("origin cut", 12) << util::PadLeft("kWh", 9)
            << util::PadLeft("USD", 9) << '\n';
  std::cout << std::string(87, '-') << '\n';
  const energy::EnergyModel energy_model{cdn::EnergySpec{}};
  for (double gb_at_full : {8.0, 24.0, 64.0}) {
    std::uint64_t baseline_origin = 0;
    for (bool peering : {false, true}) {
      cdn::SimulatorConfig config;
      config.topology.edge_capacity_bytes =
          static_cast<std::uint64_t>(gb_at_full * 1e9 * scale) + (64ULL << 20);
      config.peer_fill = peering;
      trace::CountingSink sink;
      const auto study = cdn::StreamScenario(
          synth::SiteProfile::PaperAdultSites(scale), config, seed, sink);
      cdn::CacheStats edge;
      std::uint64_t origin_bytes = 0, peer_fetches = 0;
      energy::EnergyBreakdown bill;
      for (const auto& site : study.site_results) {
        edge.Merge(site.edge_stats);
        origin_bytes += site.origin.bytes;
        peer_fetches += site.peer_fetches;
        bill.Add(energy_model.FromResult(site, util::kMillisPerWeek).total);
      }
      if (!peering) baseline_origin = origin_bytes;
      const double cut =
          baseline_origin > 0
              ? 1.0 - static_cast<double>(origin_bytes) /
                          static_cast<double>(baseline_origin)
              : 0.0;
      std::cout << util::PadRight(
                       util::FormatBytes(static_cast<double>(
                           config.topology.edge_capacity_bytes)),
                       17)
                << util::PadRight(peering ? "on" : "off", 9)
                << util::PadLeft(util::FormatPercent(edge.HitRatio(), 1), 8)
                << util::PadLeft(
                       util::FormatCount(static_cast<double>(peer_fetches)), 12)
                << util::PadLeft(
                       util::FormatBytes(static_cast<double>(origin_bytes)), 11)
                << util::PadLeft(
                       peering ? util::FormatPercent(cut, 1) : std::string("-"),
                       12)
                << util::PadLeft(util::FormatDouble(bill.TotalKwh(), 1), 9)
                << util::PadLeft(util::FormatDouble(bill.TotalUsd(), 2), 9)
                << '\n';
    }
  }
  std::cout << "\ninterpretation: sibling copies absorb fills for objects "
               "popular in one region and warm in another;\nthe origin cut "
               "shrinks as edges grow large enough to hold the working set "
               "themselves.\nkWh/USD: weekly fleet bill under the default "
               "[energy] spec — peer fills move bytes from the expensive\n"
               "origin tier to the cheaper peer tier, so the savings show up "
               "in dollars, not just hit ratio\n";
  return 0;
}
