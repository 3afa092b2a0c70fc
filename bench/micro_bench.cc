// Micro-benchmarks (google-benchmark) for the performance-critical library
// pieces: DTW, cache policies, Zipf sampling, catalog sampling, UA parsing,
// and end-to-end generation throughput — serial and parallel. The two
// parallel hot paths (workload generation, pairwise DTW) run at 1, 2 and
// all hardware threads.
#include <benchmark/benchmark.h>

#include "cdn/cache.h"
#include "cluster/dtw.h"
#include "stats/sampler.h"
#include "synth/workload.h"
#include "trace/useragent.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

using namespace atlas;

std::vector<double> RandomSeries(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble();
  return v;
}

void BM_DtwDistance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 1);
  const auto b = RandomSeries(n, 2);
  const auto band = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::DtwDistance(a, b, band));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DtwDistance)
    ->Args({168, 0})
    ->Args({168, 12})
    ->Args({672, 0})
    ->Args({672, 24});

void BM_CachePolicy(benchmark::State& state) {
  const auto kind = static_cast<cdn::PolicyKind>(state.range(0));
  util::Rng rng(7);
  // Pre-generate a Zipf-ish access stream.
  stats::ZipfSampler zipf(20000, 0.9);
  std::vector<std::uint64_t> keys(1 << 16);
  for (auto& k : keys) k = zipf.Sample(rng);
  auto cache = cdn::CreateCache(kind, 64ULL << 20);
  std::size_t i = 0;
  for (auto _ : state) {
    cache->Access(keys[i & (keys.size() - 1)], 4096,
                  static_cast<std::int64_t>(i));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(cdn::ToString(kind));
}
BENCHMARK(BM_CachePolicy)->DenseRange(0, cdn::kNumPolicyKinds - 1);

void BM_ZipfSample(benchmark::State& state) {
  util::Rng rng(3);
  stats::ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000)->Arg(10000000);

void BM_AliasTableSample(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (auto& w : weights) w = rng.NextDouble() + 0.01;
  stats::AliasTable alias(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alias.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AliasTableSample)->Arg(1000)->Arg(100000);

void BM_CatalogSampleObject(benchmark::State& state) {
  util::SetLogLevel(util::LogLevel::kWarn);
  util::Rng rng(5);
  synth::Catalog catalog(synth::SiteProfile::V2(0.05), rng);
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.SampleObject(t, rng));
    t = (t + 61234) % util::kMillisPerWeek;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CatalogSampleObject);

void BM_ParseUserAgent(benchmark::State& state) {
  const auto& bank = trace::UaBank::Instance();
  std::uint16_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::ParseUserAgent(bank.String(i++ % bank.size())));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseUserAgent);

void BM_WorkloadGenerate(benchmark::State& state) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto requests = static_cast<std::uint64_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  synth::WorkloadGenerator gen(synth::SiteProfile::P1(0.02), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Generate(requests, threads));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(requests));
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_WorkloadGenerate)
    ->Args({10000, 1})
    ->Args({50000, 1})
    ->Args({50000, 2})
    ->Args({50000, 0});  // 0 = hardware concurrency

void BM_PairwiseDtw(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  std::vector<std::vector<double>> series;
  series.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    series.push_back(RandomSeries(168, i + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::PairwiseDtw(series, 12, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * (count - 1) / 2));
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_PairwiseDtw)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 0});

}  // namespace

BENCHMARK_MAIN();
