// atlas::energy end to end: SimulatorResult merge algebra (associativity,
// zero identity) and the EnergyAccumulator checkpoint round-trip,
// bit-identical joules/dollars across thread counts and across kill+resume,
// the observation-only proof (the epoch observer cannot move a pinned
// golden trace digest), and a golden energy report for every scenario
// file shipped under scenarios/.
#include "energy/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cdn/scenario_spec.h"
#include "ckpt/checkpoint.h"
#include "energy/accumulator.h"
#include "energy/run.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "util/hash.h"
#include "util/logging.h"

namespace atlas {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::string SpecPath(const std::string& name) {
  return std::string(ATLAS_SOURCE_DIR) + "/scenarios/" + name;
}

// --- counter fixtures ------------------------------------------------------

cdn::CacheStats MakeCacheStats(std::uint64_t base) {
  cdn::CacheStats s;
  s.hits = base + 1;
  s.misses = base + 2;
  s.inserts = base + 3;
  s.evictions = base + 4;
  s.rejected = base + 5;
  s.hit_bytes = base * 1000 + 6;
  s.miss_bytes = base * 1000 + 7;
  return s;
}

cdn::SimulatorResult MakeResult(std::uint64_t base) {
  cdn::SimulatorResult r;
  r.edge_stats = MakeCacheStats(base);
  for (int d = 0; d < 4; ++d) {
    r.per_dc_stats.push_back(MakeCacheStats(base + 10 * (d + 1)));
  }
  r.origin.fetches = base + 50;
  r.origin.bytes = base * 2000 + 51;
  r.records = base + 52;
  r.peer_fetches = base + 53;
  r.peer_bytes = base + 54;
  r.browser_fresh_hits = base + 55;
  r.revalidations = base + 56;
  r.pushed_objects = base + 57;
  r.pushed_bytes = base + 58;
  return r;
}

void ExpectCacheStatsEq(const cdn::CacheStats& a, const cdn::CacheStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.inserts, b.inserts) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.rejected, b.rejected) << what;
  EXPECT_EQ(a.hit_bytes, b.hit_bytes) << what;
  EXPECT_EQ(a.miss_bytes, b.miss_bytes) << what;
}

void ExpectResultEq(const cdn::SimulatorResult& a,
                    const cdn::SimulatorResult& b, const std::string& what) {
  ExpectCacheStatsEq(a.edge_stats, b.edge_stats, what + " edge");
  ASSERT_EQ(a.per_dc_stats.size(), b.per_dc_stats.size()) << what;
  for (std::size_t d = 0; d < a.per_dc_stats.size(); ++d) {
    ExpectCacheStatsEq(a.per_dc_stats[d], b.per_dc_stats[d],
                       what + " dc" + std::to_string(d));
  }
  EXPECT_EQ(a.origin.fetches, b.origin.fetches) << what;
  EXPECT_EQ(a.origin.bytes, b.origin.bytes) << what;
  EXPECT_EQ(a.records, b.records) << what;
  EXPECT_EQ(a.peer_fetches, b.peer_fetches) << what;
  EXPECT_EQ(a.peer_bytes, b.peer_bytes) << what;
  EXPECT_EQ(a.browser_fresh_hits, b.browser_fresh_hits) << what;
  EXPECT_EQ(a.revalidations, b.revalidations) << what;
  EXPECT_EQ(a.pushed_objects, b.pushed_objects) << what;
  EXPECT_EQ(a.pushed_bytes, b.pushed_bytes) << what;
}

// --- energy runs -----------------------------------------------------------

struct EnergySpecRun {
  std::string bytes;
  std::uint64_t records = 0;
  energy::EnergyRunResult run;
};

EnergySpecRun RunWithEnergy(const cdn::ScenarioSpec& spec, int threads) {
  std::ostringstream out;
  trace::TraceWriter writer(out);
  trace::WriterSink sink(writer);
  EnergySpecRun r;
  r.run = energy::StreamScenarioWithEnergy(spec, sink, threads);
  writer.Finish();
  r.bytes = out.str();
  r.records = writer.written();
  return r;
}

// Exact double equality on purpose: the determinism contract is
// bit-identical joules/dollars, not approximately-equal ones.
void ExpectReportBitIdentical(const energy::EnergyReport& a,
                              const energy::EnergyReport& b,
                              const std::string& what) {
  EXPECT_EQ(a.span_ms, b.span_ms) << what;
  EXPECT_EQ(a.epochs, b.epochs) << what;
  ASSERT_EQ(a.dcs.size(), b.dcs.size()) << what;
  for (std::size_t i = 0; i < a.dcs.size(); ++i) {
    EXPECT_EQ(a.dcs[i].dc, b.dcs[i].dc) << what;
    EXPECT_EQ(a.dcs[i].served_bytes, b.dcs[i].served_bytes) << what;
    EXPECT_EQ(a.dcs[i].duty, b.dcs[i].duty) << what;
    EXPECT_EQ(a.dcs[i].energy.server_j, b.dcs[i].energy.server_j) << what;
    EXPECT_EQ(a.dcs[i].energy.network_j, b.dcs[i].energy.network_j) << what;
    EXPECT_EQ(a.dcs[i].energy.storage_j, b.dcs[i].energy.storage_j) << what;
    EXPECT_EQ(a.dcs[i].energy.electricity_usd, b.dcs[i].energy.electricity_usd)
        << what;
    EXPECT_EQ(a.dcs[i].energy.transit_usd, b.dcs[i].energy.transit_usd)
        << what;
  }
  EXPECT_EQ(a.total.server_j, b.total.server_j) << what;
  EXPECT_EQ(a.total.network_j, b.total.network_j) << what;
  EXPECT_EQ(a.total.storage_j, b.total.storage_j) << what;
  EXPECT_EQ(a.total.electricity_usd, b.total.electricity_usd) << what;
  EXPECT_EQ(a.total.transit_usd, b.total.transit_usd) << what;
}

class EnergyTest : public ::testing::Test {
 protected:
  void SetUp() override { util::SetLogLevel(util::LogLevel::kWarn); }
  void TearDown() override { util::SetLogLevel(util::LogLevel::kInfo); }
};

// ---------------------------------------------------------------------------
// Merge algebra: SimulatorResult.

TEST_F(EnergyTest, SimulatorResultMergeIsAssociative) {
  const auto a = MakeResult(100);
  const auto b = MakeResult(200);
  const auto c = MakeResult(300);

  cdn::SimulatorResult left = a;
  left.Merge(b);
  left.Merge(c);

  cdn::SimulatorResult bc = b;
  bc.Merge(c);
  cdn::SimulatorResult right = a;
  right.Merge(bc);

  ExpectResultEq(left, right, "(a+b)+c vs a+(b+c)");
}

TEST_F(EnergyTest, SimulatorResultMergeHasZeroIdentity) {
  const auto a = MakeResult(100);
  cdn::SimulatorResult zero;

  cdn::SimulatorResult left = a;
  left.Merge(zero);
  ExpectResultEq(left, a, "a+0");

  cdn::SimulatorResult right = zero;
  right.Merge(a);
  ExpectResultEq(right, a, "0+a");
}

// ---------------------------------------------------------------------------
// Energy accumulator.

cdn::EpochSample MakeEpochSample(std::int64_t start_ms, std::int64_t end_ms,
                                 std::uint64_t base, int ndc) {
  cdn::EpochSample s;
  s.start_ms = start_ms;
  s.end_ms = end_ms;
  for (int d = 0; d < ndc; ++d) {
    cdn::EpochDcSample dc;
    dc.dc = d;
    dc.edge = MakeCacheStats(base + 10 * (d + 1));
    dc.origin.fetches = base + d;
    dc.origin.bytes = base * 100 + d;
    dc.peer_fetches = base + 2 * d;
    dc.peer_bytes = base * 200 + d;
    dc.revalidations = base + 3 * d;
    dc.pushed_bytes = base * 300 + d;
    dc.resident_bytes = (base + 4 * static_cast<std::uint64_t>(d)) << 10;
    s.dcs.push_back(dc);
  }
  return s;
}

TEST_F(EnergyTest, AccumulatorCkptRoundTripIsExact) {
  energy::EnergyAccumulator original;
  for (int i = 0; i < 3; ++i) {
    original.Observe(
        MakeEpochSample(i * 60000, (i + 1) * 60000, 77 * (i + 1), 4));
  }
  std::stringstream stream;
  {
    ckpt::Writer w(stream);
    w.BeginSection("energy.accumulator", 1);
    original.SaveState(w);
    w.EndSection();
    w.Finish();
  }
  ckpt::Reader r(stream);
  r.BeginSection("energy.accumulator", 1);
  energy::EnergyAccumulator restored;
  restored.RestoreState(r);
  r.EndSection();
  EXPECT_EQ(restored, original);

  const energy::EnergyModel model{cdn::EnergySpec{}};
  ExpectReportBitIdentical(restored.Report(model), original.Report(model),
                           "restored report");
}

// ---------------------------------------------------------------------------
// Determinism: thread counts, kill+resume, observation-only.

TEST_F(EnergyTest, JoulesAreBitIdenticalAcrossThreadCounts) {
  const auto spec =
      cdn::ScenarioSpec::ParseFile(SpecPath("paper_study.toml"));
  const EnergySpecRun golden = RunWithEnergy(spec, 1);
  for (const int threads : kThreadCounts) {
    const EnergySpecRun run = RunWithEnergy(spec, threads);
    EXPECT_EQ(run.run.accumulator, golden.run.accumulator)
        << "threads=" << threads;
    ExpectReportBitIdentical(run.run.report, golden.run.report,
                             "threads=" + std::to_string(threads));
    EXPECT_EQ(util::Fnv1a64(run.bytes), util::Fnv1a64(golden.bytes))
        << "threads=" << threads;
  }
}

TEST_F(EnergyTest, KilledEnergyRunResumesWithIdenticalJoules) {
  const auto spec = cdn::ScenarioSpec::ParseFile(SpecPath("takedown.toml"));
  const EnergySpecRun golden = RunWithEnergy(spec, 2);

  for (const int threads : kThreadCounts) {
    const std::string tag = std::to_string(threads);
    const std::string path =
        ::testing::TempDir() + "/atlas_energy_kr_" + tag + ".v2";
    const std::string ckpt_path =
        ::testing::TempDir() + "/atlas_energy_kr_" + tag + ".ckpt";
    {
      std::ofstream out(path, std::ios::binary);
      trace::TraceWriter writer(out);
      trace::WriterSink sink(writer);
      cdn::CheckpointOptions opts;
      opts.every_epochs = 1;
      opts.path = ckpt_path;
      opts.save_extra = [&](ckpt::Writer& w) { writer.SaveState(w); };
      opts.after_save = [](std::uint64_t done) { return done < 60; };
      energy::StreamScenarioWithEnergy(spec, sink, threads, opts);
    }
    auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
    trace::ResumedTraceFile resumed(path, snapshot);
    trace::WriterSink sink(resumed.writer());
    cdn::CheckpointOptions opts;
    opts.resume = &snapshot;
    opts.save_extra = [&](ckpt::Writer& w) { resumed.writer().SaveState(w); };
    const auto run =
        energy::StreamScenarioWithEnergy(spec, sink, threads, opts);
    resumed.writer().Finish();

    EXPECT_EQ(run.accumulator, golden.run.accumulator) << "threads=" << threads;
    ExpectReportBitIdentical(run.report, golden.run.report,
                             "resumed threads=" + tag);
  }
}

TEST_F(EnergyTest, EnergyOffCheckpointRefusesEnergyResume) {
  // A snapshot written without the accumulator carries no joules for the
  // barriers it covers; resuming it with energy on must fail loudly.
  const auto spec = cdn::ScenarioSpec::ParseFile(SpecPath("takedown.toml"));
  const std::string path = ::testing::TempDir() + "/atlas_energy_off.v2";
  const std::string ckpt_path = ::testing::TempDir() + "/atlas_energy_off.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    trace::TraceWriter writer(out);
    trace::WriterSink sink(writer);
    cdn::CheckpointOptions opts;
    opts.every_epochs = 1;
    opts.path = ckpt_path;
    opts.save_extra = [&](ckpt::Writer& w) { writer.SaveState(w); };
    opts.after_save = [](std::uint64_t done) { return done < 3; };
    cdn::StreamScenario(spec, sink, 2, opts);
  }
  auto snapshot = ckpt::ReadCheckpointFile(ckpt_path);
  trace::ResumedTraceFile resumed(path, snapshot);
  trace::WriterSink sink(resumed.writer());
  cdn::CheckpointOptions opts;
  opts.resume = &snapshot;
  try {
    energy::StreamScenarioWithEnergy(spec, sink, 2, opts);
    FAIL() << "energy resume of an energy-off checkpoint must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("energy.accumulator"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Golden energy reports: every shipped scenario, pinned totals.
//
// The joule totals are pinned as llround(total joules) and the dollar
// totals as llround(total USD * 100) — exact for the fixed-order double
// folds Report() performs. The observation-only proof rides along: each
// energy run's trace digest must equal the digest pinned in
// scenario_spec_test.cc's kGoldenScenarios for the same file.
struct GoldenEnergy {
  const char* file;
  std::uint64_t trace_digest;  // == kGoldenScenarios entry for this file
  std::int64_t total_joules;
  std::int64_t total_usd_cents;
};
constexpr GoldenEnergy kGoldenEnergy[] = {
    {"paper_study.toml", 0xef475dbcd9a33c2dULL, 366192680, 1205},
    {"flash_crowd.toml", 0x46f44269337038c8ULL, 364235387, 1149},
    {"takedown.toml", 0xf8ec9a7a9514ef6fULL, 364640927, 1184},
    {"dc_outage.toml", 0xf73728864137927aULL, 364143490, 1144},
    {"cache_flush.toml", 0xded9a1d09f02cba8ULL, 364686962, 1187},
    {"live_event.toml", 0x8bcb964a1d3a3ef7ULL, 361396372, 1130},
};

TEST_F(EnergyTest, EveryShippedScenarioReproducesItsGoldenEnergyReport) {
  for (const auto& golden : kGoldenEnergy) {
    const auto spec = cdn::ScenarioSpec::ParseFile(SpecPath(golden.file));
    const EnergySpecRun run = RunWithEnergy(spec, 2);
    EXPECT_EQ(util::Fnv1a64(run.bytes), golden.trace_digest)
        << golden.file << " (observer moved the trace)";
    EXPECT_EQ(std::llround(run.run.report.total.TotalJoules()),
              golden.total_joules)
        << golden.file;
    EXPECT_EQ(std::llround(run.run.report.total.TotalUsd() * 100.0),
              golden.total_usd_cents)
        << golden.file;
  }
}

}  // namespace
}  // namespace atlas
