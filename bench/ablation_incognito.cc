// Ablation: incognito browsing vs. browser-cache utility.
//
// §V: adult publishers "cannot rely on browser cache to store locally
// popular content because of prevalent use of incognito/private web
// browsing" (contrast: Facebook serves >65% of photo requests from browser
// caches). Sweep the incognito rate and measure what the browser layer
// absorbs, how many 304s appear, and what load reaches the CDN.
#include <iostream>

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
                            "Incognito rate vs. browser-cache utility (P-1)")) {
    return 0;
  }
  const double scale = env.scale;
  const auto seed = env.seed;

  std::cout << "=== Ablation: incognito rate vs. browser-cache utility "
               "(P-1, scale=" << scale << ") ===\n";
  std::cout << util::PadRight("incognito", 11) << util::PadLeft("absorbed", 10)
            << util::PadLeft("304s", 8) << util::PadLeft("cdn-reqs", 10)
            << util::PadLeft("edge-hit%", 11) << util::PadLeft("kWh", 9)
            << util::PadLeft("USD", 9) << '\n';
  std::cout << std::string(68, '-') << '\n';
  const energy::EnergyModel energy_model{cdn::EnergySpec{}};
  for (double rate : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    synth::SiteProfile profile = synth::SiteProfile::P1(scale);
    profile.incognito_rate = rate;
    // Give repeats a chance so browser caches can matter at all.
    profile.repeat_request_prob = 0.25;
    profile.favorite_adopt_prob = 0.4;
    cdn::SimulatorConfig config;
    config.topology.edge_capacity_bytes =
        static_cast<std::uint64_t>(20e9 * scale);
    trace::CountingSink sink;
    const auto result = cdn::SimulateSite(profile, 0, config, seed, sink);
    std::cout << util::PadRight(util::FormatPercent(rate, 0), 11)
              << util::PadLeft(util::FormatCount(static_cast<double>(
                                   result.browser_fresh_hits)),
                               10)
              << util::PadLeft(
                     util::FormatCount(static_cast<double>(result.revalidations)),
                     8)
              << util::PadLeft(
                     util::FormatCount(static_cast<double>(result.records)),
                     10)
              << util::PadLeft(
                     util::FormatPercent(result.edge_stats.HitRatio(), 1), 11);
    const auto bill =
        energy_model.FromResult(result, util::kMillisPerWeek).total;
    std::cout << util::PadLeft(util::FormatDouble(bill.TotalKwh(), 1), 9)
              << util::PadLeft(util::FormatDouble(bill.TotalUsd(), 2), 9)
              << '\n';
  }
  std::cout << "\npaper's claim under test: as incognito usage rises, "
               "browser-cache absorption and 304 revalidations\ncollapse, "
               "pushing the full request load onto the CDN — and the CDN's "
               "weekly kWh/USD bill rises with it\n";
  return 0;
}
