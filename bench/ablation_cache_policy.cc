// Ablation: which edge cache policy wins on adult traffic mixes?
//
// Replays the same generated workload through every policy at a range of
// capacities, for the video-heavy (V-1) and image-heavy (P-1) sites. §V's
// implication under test: small-object-friendly policies (GDSF) shine on
// image mixes; recency/frequency policies matter for chunked video.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "cdn/scenario.h"
#include "energy/model.h"
#include "synth/site_profile.h"
#include "util/str.h"
#include "util/time.h"

int main(int argc, char** argv) {
  using namespace atlas;
  bench::AblationEnv env;
  if (!bench::SetUpAblation(env, argc, argv,
                            "Edge cache policy sweep (V-1 and P-1)")) {
    return 0;
  }
  const double scale = env.scale;
  const auto seed = env.seed;

  const std::vector<synth::SiteProfile> profiles = {
      synth::SiteProfile::V1(scale), synth::SiteProfile::P1(scale)};
  const std::vector<double> capacities_gb = {0.25, 0.5, 1.0, 2.0};

  std::cout << "=== Ablation: edge cache policy sweep (scale=" << scale
            << ") ===\n";
  std::cout << util::PadRight("site", 6) << util::PadRight("policy", 9)
            << util::PadLeft("cap(GB)", 9) << util::PadLeft("hit%", 8)
            << util::PadLeft("byte-hit%", 11) << util::PadLeft("origin", 10)
            << util::PadLeft("evictions", 11) << util::PadLeft("kWh", 9)
            << util::PadLeft("USD", 9) << '\n';
  std::cout << std::string(82, '-') << '\n';
  const energy::EnergyModel energy_model{cdn::EnergySpec{}};
  for (const auto& profile : profiles) {
    for (double cap_gb : capacities_gb) {
      for (int k = 0; k < cdn::kNumPolicyKinds; ++k) {
        cdn::SimulatorConfig config;
        config.topology.edge_policy = static_cast<cdn::PolicyKind>(k);
        config.topology.edge_capacity_bytes =
            static_cast<std::uint64_t>(cap_gb * 1e9 * scale * 20);
        trace::CountingSink sink;
        const auto result = cdn::SimulateSite(profile, 0, config, seed, sink);
        std::cout << util::PadRight(profile.name, 6)
                  << util::PadRight(
                         cdn::ToString(static_cast<cdn::PolicyKind>(k)), 9)
                  << util::PadLeft(util::FormatDouble(cap_gb, 2), 9)
                  << util::PadLeft(
                         util::FormatPercent(result.edge_stats.HitRatio(), 1), 8)
                  << util::PadLeft(util::FormatPercent(
                                       result.edge_stats.ByteHitRatio(), 1),
                                   11)
                  << util::PadLeft(
                         util::FormatBytes(static_cast<double>(result.origin.bytes)),
                         10)
                  << util::PadLeft(
                         util::FormatCount(
                             static_cast<double>(result.edge_stats.evictions)),
                         11);
        const auto bill =
            energy_model.FromResult(result, util::kMillisPerWeek).total;
        std::cout << util::PadLeft(util::FormatDouble(bill.TotalKwh(), 1), 9)
                  << util::PadLeft(util::FormatDouble(bill.TotalUsd(), 2), 9)
                  << '\n';
      }
    }
    std::cout << '\n';
  }
  return 0;
}
