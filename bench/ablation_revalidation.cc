// Ablation: pattern-aware revalidation schedules.
//
// §IV-B/§V: revalidate diurnal and long-lived objects rarely (daily-scale
// expiry) and short-lived objects often. The closed loop: run the study,
// classify per-object temporal shapes from the trace itself, feed the
// classifications into a RevalidationOracle, and replay the trace through
// (a) uniform-short TTL, (b) uniform-long TTL, and (c) oracle-driven TTL
// caches. The oracle should match the long TTL's hit ratio while keeping
// short-lived objects on an hourly revalidation schedule.
#include <iostream>
#include <memory>

#include "analysis/trend_cluster.h"
#include "bench_common.h"
#include "cdn/policies.h"
#include "cdn/revalidation.h"
#include "cdn/scenario.h"
#include "cluster/shape.h"
#include "energy/model.h"
#include "util/str.h"
#include "util/time.h"

namespace {

using namespace atlas;

struct ReplayStats {
  cdn::CacheStats cache;
  std::uint64_t expired = 0;
};

// Replays the study's merged trace through `cache`, block by block.
ReplayStats Replay(cdn::Cache& cache, const trace::TraceBuffer& study) {
  trace::BufferBlockSource source(study);
  for (const auto* b = source.NextBlock(); b != nullptr;
       b = source.NextBlock()) {
    for (std::size_t i = 0; i < b->size(); ++i) {
      if (b->response_code[i] != trace::kHttpOk &&
          b->response_code[i] != trace::kHttpPartialContent) {
        continue;
      }
      cache.Access(b->url_hash[i], b->object_size[i], b->timestamp_ms[i]);
    }
  }
  ReplayStats out;
  out.cache = cache.stats();
  if (auto* oracle_cache = dynamic_cast<cdn::OracleTtlCache*>(&cache)) {
    out.expired = oracle_cache->expired_lookups();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::AblationEnv env;
  env.flags.DefineDouble("capacity-gb", 2.0, "replay cache capacity (GB)");
  if (!bench::SetUpAblation(env, argc, argv,
                            "Pattern-aware revalidation schedules")) {
    return 0;
  }
  const double scale = env.scale;

  cdn::SimulatorConfig config;
  trace::TraceBuffer study;
  trace::BufferSink sink(study);
  const auto result = cdn::StreamScenario(
      synth::SiteProfile::PaperAdultSites(scale), config, env.seed, sink);

  // Classify object shapes from the trace (per site, both classes) and feed
  // the oracle — the analysis->delivery closed loop.
  cdn::RevalidationOracle oracle;
  for (const auto& site : result.registry.all()) {
    const trace::TraceBuffer site_trace = study.FilterByPublisher(site.id);
    for (const auto cls :
         {trace::ContentClass::kVideo, trace::ContentClass::kImage}) {
      analysis::TrendClusterConfig tc;
      tc.use_class = true;
      tc.content_class = cls;
      tc.min_requests = 20;
      const auto series = analysis::BuildObjectHourlySeries(site_trace, tc);
      for (const auto& [hash, s] : series) {
        oracle.Classify(hash, cluster::ClassifyShape(s));
      }
    }
  }

  const auto capacity = static_cast<std::uint64_t>(
      env.flags.GetDouble("capacity-gb") * 1e9 * scale * 20);
  std::cout << "=== Ablation: revalidation schedules (scale=" << scale
            << ", capacity "
            << util::FormatBytes(static_cast<double>(capacity))
            << ", " << oracle.classified_count()
            << " objects classified) ===\n\n";
  std::cout << util::PadRight("schedule", 26) << util::PadLeft("hit%", 8)
            << util::PadLeft("expired-miss", 14)
            << util::PadLeft("origin fetches", 16) << util::PadLeft("kWh", 9)
            << util::PadLeft("USD", 9) << '\n';
  std::cout << std::string(82, '-') << '\n';

  const energy::EnergyModel energy_model{cdn::EnergySpec{}};
  const auto report = [&](const char* label, ReplayStats stats) {
    // Weekly bill for the replay: hits serve at the edge tier, every miss
    // (including expiry-induced ones) is an origin fetch plus the 304
    // revalidation round-trips the schedule forces.
    energy::DcCounters c;
    c.hits = stats.cache.hits;
    c.misses = stats.cache.misses;
    c.hit_bytes = stats.cache.hit_bytes;
    c.miss_bytes = stats.cache.miss_bytes;
    c.origin_fetches = stats.cache.misses;
    c.origin_bytes = stats.cache.miss_bytes;
    c.revalidations = stats.expired;
    const auto bill = energy_model.Cost(c, util::kMillisPerWeek);
    std::cout << util::PadRight(label, 26)
              << util::PadLeft(util::FormatPercent(stats.cache.HitRatio(), 1), 8)
              << util::PadLeft(
                     stats.expired > 0
                         ? util::FormatCount(static_cast<double>(stats.expired))
                         : std::string("-"),
                     14)
              << util::PadLeft(
                     util::FormatCount(static_cast<double>(stats.cache.misses)),
                     16)
              << util::PadLeft(util::FormatDouble(bill.TotalKwh(), 1), 9)
              << util::PadLeft(util::FormatDouble(bill.TotalUsd(), 2), 9)
              << '\n';
  };

  {
    cdn::TtlLruCache uniform_short(capacity, 3600 * 1000LL);
    report("uniform TTL = 1 h", Replay(uniform_short, study));
  }
  {
    cdn::TtlLruCache uniform_long(capacity, 24 * 3600 * 1000LL);
    report("uniform TTL = 24 h", Replay(uniform_long, study));
  }
  {
    cdn::OracleTtlCache oracle_cache(
        capacity, [&](std::uint64_t key) { return oracle.TtlFor(key); });
    report("pattern-aware oracle", Replay(oracle_cache, study));
  }

  std::cout << "\npaper's claim under test: long expiry for diurnal/"
               "long-lived objects recovers the uniform-24h hit ratio\n"
               "while unclassified/short-lived objects keep conservative "
               "freshness (bounded staleness).\nkWh/USD: weekly bill under "
               "the default [energy] spec — needless expiry turns edge-tier "
               "bytes into\norigin-tier bytes, which is where the dollars "
               "go\n";
  return 0;
}
