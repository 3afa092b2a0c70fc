// Ablation: pushing popular adult objects closer to end-users.
//
// §V: "content delivery networks can improve performance and reduce network
// traffic by pushing copies of popular adult objects to locations closer to
// their end-users", specifically diurnal and long-lived objects. Sweep the
// push budget and pattern selection; report hit ratio, origin traffic, and
// the week's energy/dollar bill under the default EnergySpec — the y-axis
// §V actually argues about.
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
                            "Push/prefetch strategy sweep on V-2")) {
    return 0;
  }
  const double scale = env.scale;
  const auto seed = env.seed;
  const auto profile = synth::SiteProfile::V2(scale);

  struct Variant {
    const char* label;
    bool enabled;
    std::size_t top_n;
    bool diurnal;
    bool long_lived;
    bool short_lived;
  };
  const Variant kVariants[] = {
      {"no push (baseline)", false, 0, false, false, false},
      {"push top-50 diurnal+long", true, 50, true, true, false},
      {"push top-200 diurnal+long", true, 200, true, true, false},
      {"push top-800 diurnal+long", true, 800, true, true, false},
      {"push top-200 diurnal only", true, 200, true, false, false},
      {"push top-200 long only", true, 200, false, true, false},
      {"push top-200 short-lived", true, 200, false, false, true},
  };

  std::cout << "=== Ablation: push/prefetch strategies on V-2 (scale=" << scale
            << ") ===\n";
  std::cout << util::PadRight("variant", 28) << util::PadLeft("hit%", 8)
            << util::PadLeft("origin", 11) << util::PadLeft("pushed", 9)
            << util::PadLeft("push-bytes", 12) << util::PadLeft("kWh", 9)
            << util::PadLeft("USD", 9) << '\n';
  std::cout << std::string(86, '-') << '\n';
  const energy::EnergyModel energy_model{cdn::EnergySpec{}};
  for (const auto& v : kVariants) {
    cdn::SimulatorConfig config;
    config.topology.edge_capacity_bytes =
        static_cast<std::uint64_t>(30e9 * scale);
    config.push.enabled = v.enabled;
    config.push.top_n = v.top_n;
    config.push.include_diurnal = v.diurnal;
    config.push.include_long_lived = v.long_lived;
    config.push.include_short_lived = v.short_lived;
    trace::CountingSink sink;
    const auto result = cdn::SimulateSite(profile, 0, config, seed, sink);
    std::cout << util::PadRight(v.label, 28)
              << util::PadLeft(
                     util::FormatPercent(result.edge_stats.HitRatio(), 1), 8)
              << util::PadLeft(
                     util::FormatBytes(static_cast<double>(result.origin.bytes)),
                     11)
              << util::PadLeft(util::FormatCount(
                                   static_cast<double>(result.pushed_objects)),
                               9)
              << util::PadLeft(
                     util::FormatBytes(static_cast<double>(result.pushed_bytes)),
                     12);
    const auto bill =
        energy_model.FromResult(result, util::kMillisPerWeek).total;
    std::cout << util::PadLeft(util::FormatDouble(bill.TotalKwh(), 1), 9)
              << util::PadLeft(util::FormatDouble(bill.TotalUsd(), 2), 9)
              << '\n';
  }
  std::cout << "\npaper's claim under test: pushing diurnal/long-lived "
               "objects raises hit ratio and cuts origin traffic;\npushing "
               "short-lived objects is the wrong spend (they die before the "
               "copies pay off)\nkWh/USD: week-long bill under the default "
               "[energy] spec — origin bytes price at the expensive tier,\n"
               "so the push variants that cut origin egress cut dollars\n";
  return 0;
}
