// Ablation: which edge cache policy wins on adult traffic mixes?
//
// Replays the same generated workload through every policy at a range of
// capacities, for the video-heavy (V-1) and image-heavy (P-1) sites. §V's
// implication under test: small-object-friendly policies (GDSF) shine on
// image mixes; recency/frequency policies matter for chunked video.
//
// Capacities are 1/16, 1/8, 1/4 and 1/2 of each site's own working set:
// the bytes the busiest DC's edge misses under an unbounded LRU, i.e. its
// compulsory misses. Every swept cache is smaller than that DC's working
// set, so every row evicts and the policies have something to decide.
#include <algorithm>
#include <iostream>
#include <limits>
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
  const std::vector<double> working_set_fractions = {1.0 / 16, 1.0 / 8,
                                                     1.0 / 4, 1.0 / 2};

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
    cdn::SimulatorConfig unbounded;
    unbounded.topology.edge_capacity_bytes =
        std::numeric_limits<std::uint64_t>::max();
    trace::CountingSink probe_sink;
    const auto probe =
        cdn::SimulateSite(profile, 0, unbounded, seed, probe_sink);
    std::uint64_t working_set = 0;
    for (const auto& dc : probe.per_dc_stats) {
      working_set = std::max(working_set, dc.miss_bytes);
    }
    for (double fraction : working_set_fractions) {
      const auto capacity = static_cast<std::uint64_t>(
          static_cast<double>(working_set) * fraction);
      const double cap_gb = static_cast<double>(capacity) / 1e9;
      for (int k = 0; k < cdn::kNumPolicyKinds; ++k) {
        cdn::SimulatorConfig config;
        config.topology.edge_policy = static_cast<cdn::PolicyKind>(k);
        config.topology.edge_capacity_bytes = capacity;
        trace::CountingSink sink;
        const auto result = cdn::SimulateSite(profile, 0, config, seed, sink);
        std::cout << util::PadRight(profile.name, 6)
                  << util::PadRight(
                         cdn::ToString(static_cast<cdn::PolicyKind>(k)), 9)
                  << util::PadLeft(util::FormatDouble(cap_gb, 3), 9)
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
