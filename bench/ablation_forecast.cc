// Ablation: accounting for adult traffic in forecasting models.
//
// §V: "it is important to separately account for adult traffic in the
// traffic forecasting models and network resource allocation." Four models
// predict the last 2 days of hourly volume from the first 5:
//   (a) canonical template  — the operator practice the paper warns about:
//       assume ALL traffic follows the non-adult hour-of-day profile;
//   (b) per-stream templates — adult-aware profiles, predictions summed;
//   (c,d) Holt-Winters pooled/separated — a generic seasonal learner as the
//       reference (it learns the mixed profile, so pooling is fine there).
#include <cmath>
#include <iostream>

#include "analysis/forecast.h"
#include "bench_common.h"
#include "cdn/scenario.h"
#include "energy/model.h"
#include "util/str.h"
#include "util/time.h"

namespace {

using namespace atlas;

// Hourly request-count series (UTC) for a trace.
stats::TimeSeries HourlySeries(const trace::TraceBuffer& trace) {
  stats::TimeSeries ts(util::kMillisPerHour, util::kHoursPerWeek);
  for (const auto& r : trace.records()) ts.Accumulate(r.timestamp_ms);
  return ts;
}

}  // namespace

int main(int argc, char** argv) {
  bench::AblationEnv env;
  env.flags.DefineInt("train-days", 5, "training window in days");
  if (!bench::SetUpAblation(env, argc, argv,
                            "Adult-aware vs. pooled traffic forecasting")) {
    return 0;
  }
  const double scale = env.scale;
  const auto seed = env.seed;
  const auto train =
      static_cast<std::size_t>(env.flags.GetInt("train-days")) * 24;

  cdn::SimulatorConfig config;
  trace::TraceBuffer study;
  trace::BufferSink study_sink(study);
  cdn::StreamScenario(synth::SiteProfile::PaperAdultSites(scale), config, seed,
                      study_sink);
  // The non-adult stream carries the classic evening diurnal phase and
  // dominates real mixes; weight it 3x the adult aggregate.
  synth::SiteProfile background = synth::SiteProfile::NonAdult(scale);
  background.total_requests *= 3;
  trace::TraceBuffer non_adult;
  trace::BufferSink non_adult_sink(non_adult);
  cdn::SimulateSite(background, 99, config, seed + 7, non_adult_sink);

  // Components: the five adult sites together, then the background.
  std::vector<stats::TimeSeries> components;
  components.push_back(HourlySeries(study));
  components.push_back(HourlySeries(non_adult));

  const auto& non_adult_ts = components[1];
  stats::TimeSeries pooled(util::kMillisPerHour, util::kHoursPerWeek);
  for (const auto& c : components) {
    for (std::size_t h = 0; h < pooled.size(); ++h) pooled[h] += c[h];
  }

  std::cout << "=== Ablation: forecasting adult traffic (scale=" << scale
            << ", train " << env.flags.GetInt("train-days") << "d, test "
            << 7 - env.flags.GetInt("train-days") << "d) ===\n\n";
  std::cout << util::PadRight("model", 38) << util::PadLeft("MAE", 10)
            << util::PadLeft("RMSE", 10) << util::PadLeft("MAPE", 9)
            << util::PadLeft("waste-kWh", 11) << util::PadLeft("waste-USD", 11)
            << '\n';
  std::cout << std::string(89, '-') << '\n';

  // Price forecast error as misprovisioned delivery: every mispredicted
  // request is a request the allocation plan placed on the wrong tier, so
  // its bytes move at origin-fetch rates instead of edge rates. Average
  // bytes/request comes from the same traces the series were built from.
  std::uint64_t total_bytes = 0, total_requests = 0;
  for (const auto* buffer : {&study, &non_adult}) {
    total_requests += buffer->size();
    for (const auto& r : buffer->records()) total_bytes += r.response_bytes;
  }
  const double bytes_per_request =
      total_requests > 0
          ? static_cast<double>(total_bytes) / static_cast<double>(total_requests)
          : 0.0;
  const double test_hours =
      static_cast<double>(util::kHoursPerWeek) - static_cast<double>(train);
  const energy::EnergyModel energy_model{cdn::EnergySpec{}};
  const auto row = [&](const char* label, const analysis::ForecastResult& f) {
    energy::DcCounters waste;
    waste.origin_bytes =
        static_cast<std::uint64_t>(f.mae * test_hours * bytes_per_request);
    // span 0: no server idle floor — only the per-byte tier prices apply.
    const auto bill = energy_model.Cost(waste, 0);
    std::cout << util::PadRight(label, 38)
              << util::PadLeft(util::FormatDouble(f.mae, 1), 10)
              << util::PadLeft(util::FormatDouble(f.rmse, 1), 10)
              << util::PadLeft(util::FormatPercent(f.mape, 1), 9)
              << util::PadLeft(util::FormatDouble(bill.TotalKwh(), 2), 11)
              << util::PadLeft(util::FormatDouble(bill.TotalUsd(), 2), 11)
              << '\n';
  };

  // (a) The operator model: apply the canonical non-adult daily profile to
  // everything — the practice the paper warns against.
  const auto canonical = analysis::HourProfile(non_adult_ts, train);
  row("canonical (non-adult) template",
      analysis::TemplateForecast(pooled, train, canonical));
  // (b) Adult-aware templates: each stream forecast with its own profile.
  {
    analysis::ForecastResult separated;
    separated.predictions.assign(pooled.size() - train, 0.0);
    for (const auto& c : components) {
      const auto f =
          analysis::TemplateForecast(c, train, analysis::HourProfile(c, train));
      for (std::size_t h = 0; h < f.predictions.size(); ++h) {
        separated.predictions[h] += f.predictions[h];
      }
    }
    // Score against the pooled actuals.
    double abs_sum = 0, sq = 0, pct = 0;
    std::size_t pct_n = 0;
    for (std::size_t h = 0; h < separated.predictions.size(); ++h) {
      const double actual = pooled[train + h];
      const double err = separated.predictions[h] - actual;
      abs_sum += std::abs(err);
      sq += err * err;
      if (actual > 0) {
        pct += std::abs(err) / actual;
        ++pct_n;
      }
    }
    const auto n = static_cast<double>(separated.predictions.size());
    separated.mae = abs_sum / n;
    separated.rmse = std::sqrt(sq / n);
    separated.mape = pct_n ? pct / static_cast<double>(pct_n) : 0.0;
    row("per-stream templates (adult-aware)", separated);
  }
  // (c) Reference: generic seasonal learners, pooled vs separated.
  const auto cmp = analysis::ComparePooledVsSeparated(components, train);
  row("Holt-Winters, pooled", cmp.pooled);
  row("Holt-Winters, separated", cmp.separated);

  std::cout << "\npaper's claim under test: forecasting models tuned to the "
               "canonical web profile misallocate for adult\ntraffic "
               "(off-phase peaks); adult-aware profiles fix it. A generic "
               "seasonal learner (Holt-Winters)\nabsorbs the mixed profile "
               "either way — separation matters when models assume a shape.\n"
               "waste-kWh/USD: mispredicted requests priced as origin-tier "
               "bytes under the default [energy] spec —\nthe provisioning "
               "cost of trusting the canonical profile\n";
  return 0;
}
