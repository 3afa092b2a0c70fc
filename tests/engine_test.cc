// Sharded simulation engine contract (cdn/engine.h):
//
//   1. the merged trace is byte-identical at 1, 2, and 8 worker threads;
//   2. it is byte-identical to the pre-sharding sequential simulator — the
//      pinned digests below were captured from the monolithic
//      per-site-then-stable-sort implementation before the engine existed,
//      with peer fill and push enabled;
//   3. the epoch length (SimulatorConfig::epoch_ms) never changes a trace
//      byte — only the peer-fill/origin split of miss traffic;
//   4. streaming into a v2 TraceWriter produces the same bytes as running
//      into a BufferSink, within a bounded memory footprint.
#include "cdn/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cdn/cache.h"
#include "cdn/scenario.h"
#include "cdn/simulator.h"
#include "ckpt/checkpoint.h"
#include "scenario_fixtures.h"
#include "synth/site_profile.h"
#include "trace/sink.h"
#include "trace/stream.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/par.h"

namespace atlas {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// Pre-refactor golden digests: FNV-1a over the flat trace bytes,
// captured from the sequential simulator at the commit before the sharded
// engine landed. If one of these moves, the engine no longer reproduces
// the monolithic simulator byte for byte — that is a correctness bug, not
// a tolerable drift; update only for a deliberate generator/simulator
// change, and say so in the commit message.
constexpr std::uint64_t kScenarioMergedDigest = 0x564df37d376cf36aULL;
constexpr std::size_t kScenarioMergedRecords = 53664;
constexpr std::uint64_t kSiteV1Digest = 0x4c3e02e470f4b91aULL;
constexpr std::size_t kSiteV1Records = 27364;
constexpr std::uint64_t kSiteP2MultiDcDigest = 0xf162ed83e76a57deULL;
constexpr std::size_t kSiteP2MultiDcRecords = 1720;

cdn::SimulatorConfig GoldenConfig() {
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 256ULL << 20;
  config.peer_fill = true;
  config.push.enabled = true;
  config.push.top_n = 100;
  return config;
}

std::uint64_t Digest(const trace::TraceBuffer& buffer) {
  return util::Fnv1a64(testutil::FlatTraceBytes(buffer));
}

TEST(EngineGoldenTest, ScenarioMergedMatchesSequentialAtAnyThreadCount) {
  util::SetLogLevel(util::LogLevel::kWarn);
  for (const int threads : kThreadCounts) {
    const auto study = testutil::RunPaperStudy(0.01, GoldenConfig(), 42,
                                               threads);
    ASSERT_EQ(study.trace.size(), kScenarioMergedRecords)
        << "threads=" << threads;
    EXPECT_EQ(Digest(study.trace), kScenarioMergedDigest)
        << "threads=" << threads;
  }
}

TEST(EngineGoldenTest, SingleSiteMatchesSequential) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto result = testutil::SimulateSite(synth::SiteProfile::V1(0.01), 3,
                                             GoldenConfig(), 99);
  ASSERT_EQ(result.trace.size(), kSiteV1Records);
  EXPECT_EQ(Digest(result.trace), kSiteV1Digest);
  EXPECT_EQ(result.records, kSiteV1Records);
}

TEST(EngineGoldenTest, MultiDcTopologyMatchesSequential) {
  util::SetLogLevel(util::LogLevel::kWarn);
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 128ULL << 20;
  config.topology.dcs_per_continent = 2;
  config.push.enabled = true;
  config.push.top_n = 50;
  const auto result =
      testutil::SimulateSite(synth::SiteProfile::P2(0.01), 5, config, 7);
  ASSERT_EQ(result.trace.size(), kSiteP2MultiDcRecords);
  EXPECT_EQ(Digest(result.trace), kSiteP2MultiDcDigest);
}

TEST(EngineTest, EpochLengthNeverChangesTraceBytes) {
  util::SetLogLevel(util::LogLevel::kWarn);
  for (const std::int64_t epoch_ms :
       {15 * 60 * 1000LL, 3600 * 1000LL, 6 * 3600 * 1000LL}) {
    auto config = GoldenConfig();
    config.epoch_ms = epoch_ms;
    const auto result =
        testutil::SimulateSite(synth::SiteProfile::V1(0.01), 3, config, 99);
    ASSERT_EQ(result.trace.size(), kSiteV1Records) << "epoch_ms=" << epoch_ms;
    EXPECT_EQ(Digest(result.trace), kSiteV1Digest) << "epoch_ms=" << epoch_ms;
  }
}

TEST(EngineTest, PeerFillOnlyMovesCountersNeverBytes) {
  util::SetLogLevel(util::LogLevel::kWarn);
  auto with_peer = GoldenConfig();
  auto without_peer = GoldenConfig();
  without_peer.peer_fill = false;
  const auto a =
      testutil::SimulateSite(synth::SiteProfile::P1(0.01), 7, with_peer, 99);
  const auto b =
      testutil::SimulateSite(synth::SiteProfile::P1(0.01), 7, without_peer, 99);
  EXPECT_EQ(Digest(a.trace), Digest(b.trace));
  EXPECT_EQ(b.peer_fetches, 0u);
  // Peer fills divert origin fetches one for one.
  EXPECT_EQ(a.origin.fetches + a.peer_fetches, b.origin.fetches);
}

TEST(EngineTest, StreamedV2FileMatchesBufferedRun) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto profile = synth::SiteProfile::S1(0.01);
  const auto config = GoldenConfig();

  const auto buffered = testutil::SimulateSite(profile, 4, config, 11);

  const std::string path = ::testing::TempDir() + "/atlas_engine_stream.v2";
  cdn::SimulatorResult streamed;
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    trace::TraceWriter writer(out);
    trace::WriterSink sink(writer);
    streamed = cdn::SimulateSite(profile, 4, config, 11, sink);
    writer.Finish();
    EXPECT_EQ(writer.written(), buffered.trace.size());
  }
  trace::TraceFileReader reader(path);
  const auto round_tripped = trace::ReadAllRecords(reader);
  std::remove(path.c_str());

  EXPECT_EQ(Digest(round_tripped), Digest(buffered.trace));
  EXPECT_EQ(streamed.records, buffered.records);
  EXPECT_EQ(streamed.origin.fetches, buffered.origin.fetches);
  EXPECT_EQ(streamed.origin.bytes, buffered.origin.bytes);
  EXPECT_EQ(streamed.peer_fetches, buffered.peer_fetches);
  EXPECT_EQ(streamed.edge_stats.hits, buffered.edge_stats.hits);
  EXPECT_EQ(streamed.edge_stats.misses, buffered.edge_stats.misses);
  EXPECT_EQ(streamed.pushed_objects, buffered.pushed_objects);
  EXPECT_EQ(streamed.pushed_bytes, buffered.pushed_bytes);
}

TEST(EngineTest, ResultMergeFoldsEveryCounter) {
  cdn::SimulatorResult a;
  a.records = 10;
  a.peer_fetches = 2;
  a.peer_bytes = 100;
  a.browser_fresh_hits = 3;
  a.revalidations = 4;
  a.pushed_objects = 5;
  a.pushed_bytes = 500;
  a.origin.fetches = 6;
  a.origin.bytes = 600;
  a.edge_stats.hits = 7;
  a.edge_stats.misses = 8;
  a.per_dc_stats.resize(2);
  a.per_dc_stats[1].hits = 9;

  cdn::SimulatorResult b;
  b.records = 1;
  b.peer_fetches = 1;
  b.peer_bytes = 1;
  b.browser_fresh_hits = 1;
  b.revalidations = 1;
  b.pushed_objects = 1;
  b.pushed_bytes = 1;
  b.origin.fetches = 1;
  b.origin.bytes = 1;
  b.edge_stats.hits = 1;
  b.edge_stats.misses = 1;
  b.per_dc_stats.resize(3);
  b.per_dc_stats[2].misses = 2;

  a.Merge(b);
  EXPECT_EQ(a.records, 11u);
  EXPECT_EQ(a.peer_fetches, 3u);
  EXPECT_EQ(a.peer_bytes, 101u);
  EXPECT_EQ(a.browser_fresh_hits, 4u);
  EXPECT_EQ(a.revalidations, 5u);
  EXPECT_EQ(a.pushed_objects, 6u);
  EXPECT_EQ(a.pushed_bytes, 501u);
  EXPECT_EQ(a.origin.fetches, 7u);
  EXPECT_EQ(a.origin.bytes, 601u);
  EXPECT_EQ(a.edge_stats.hits, 8u);
  EXPECT_EQ(a.edge_stats.misses, 9u);
  ASSERT_EQ(a.per_dc_stats.size(), 3u);
  EXPECT_EQ(a.per_dc_stats[1].hits, 9u);
  EXPECT_EQ(a.per_dc_stats[2].misses, 2u);
}

TEST(EngineTest, ScenarioTotalsEqualFoldedSiteResults) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto study = testutil::RunPaperStudy(0.01, GoldenConfig(), 42);
  const auto& totals = study.result.totals;
  ASSERT_EQ(study.result.site_results.size(), 5u);
  cdn::SimulatorResult folded;
  for (std::size_t i = 0; i < study.result.site_results.size(); ++i) {
    const auto& site = study.result.site_results[i];
    folded.Merge(site);
    EXPECT_EQ(site.records, study.SiteTrace(i).size()) << "site " << i;
  }
  EXPECT_EQ(totals.records, folded.records);
  EXPECT_EQ(totals.records, study.trace.size());
  EXPECT_EQ(totals.origin.fetches, folded.origin.fetches);
  EXPECT_EQ(totals.edge_stats.hits, folded.edge_stats.hits);
}

TEST(EngineTest, RejectsUnsortedEvents) {
  cdn::SimulatorConfig config;
  synth::WorkloadGenerator gen(synth::SiteProfile::P1(0.005), 1);
  auto events = gen.Generate(100);
  ASSERT_GE(events.size(), 2u);
  std::swap(events.front().timestamp_ms, events.back().timestamp_ms);
  const cdn::SiteJob job{&gen, &events, 0};
  trace::CountingSink sink;
  EXPECT_THROW(cdn::RunSharded({&job, 1}, config, sink), std::invalid_argument);
}

TEST(EngineTest, RejectsNonPositiveEpoch) {
  cdn::SimulatorConfig config;
  config.epoch_ms = 0;
  synth::WorkloadGenerator gen(synth::SiteProfile::P1(0.005), 1);
  const auto events = gen.Generate(100);
  const cdn::SiteJob job{&gen, &events, 0};
  trace::CountingSink sink;
  EXPECT_THROW(cdn::RunSharded({&job, 1}, config, sink), std::invalid_argument);
}

TEST(EngineTest, CraftedPendingCountFailsAsCheckpointError) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const cdn::SimulatorConfig config = GoldenConfig();
  synth::WorkloadGenerator gen(synth::SiteProfile::P1(0.005), 1);
  const auto events = gen.Generate(2000);
  const cdn::SiteJob job{&gen, &events, 0};
  const std::string path = ::testing::TempDir() + "/atlas_engine_pending.ckpt";
  {
    cdn::CheckpointOptions save;
    save.every_epochs = 1;
    save.path = path;
    save.after_save = [](std::uint64_t) { return false; };
    trace::CountingSink sink;
    cdn::RunSharded({&job, 1}, config, sink, 1, save);
  }
  // Keep the saved engine.meta; replace every shard with an empty one in
  // Engine::SaveShard's v2 layout, except that shard 0's pending count
  // claims 2^61 + 1 records with none behind it.
  ckpt::Reader saved = ckpt::ReadCheckpointFile(path);
  saved.BeginSection("engine.meta", 1);
  const std::uint64_t fingerprint = saved.ReadU64();
  const std::int64_t epoch_end = saved.ReadI64();
  const std::uint64_t barriers = saved.ReadU64();
  const std::uint64_t shards = saved.ReadU64();
  saved.EndSection();
  ckpt::WriteCheckpointFile(path, [&](ckpt::Writer& w) {
    w.BeginSection("engine.meta", 1);
    w.WriteU64(fingerprint);
    w.WriteI64(epoch_end);
    w.WriteU64(barriers);
    w.WriteU64(shards);
    w.EndSection();
    for (std::uint64_t i = 0; i < shards; ++i) {
      w.BeginSection("engine.shard." + std::to_string(i), 2);
      // Three cursors and fifteen counters.
      for (int field = 0; field < 18; ++field) w.WriteU64(0);
      cdn::CreateCache(config.topology.edge_policy,
                       config.topology.edge_capacity_bytes,
                       config.topology.edge_ttl_ms)
          ->SaveState(w);
      w.WriteU64(0);                                    // browser caches
      w.WriteU64(i == 0 ? (1ULL << 61) + 1 : 0);  // pending records
      w.EndSection();
    }
  });
  ckpt::Reader crafted = ckpt::ReadCheckpointFile(path);
  cdn::CheckpointOptions resume;
  resume.resume = &crafted;
  trace::CountingSink sink;
  try {
    cdn::RunSharded({&job, 1}, config, sink, 1, resume);
    FAIL() << "crafted pending count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ckpt: corrupt element count"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// --- Bounded memory ----------------------------------------------------------

bool UnderSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TEST(EngineMemoryTest, StreamedSimulationStaysUnderRecordBudget) {
  // The engine must never hold the emitted trace: a run whose output would
  // dwarf the budget as a TraceBuffer has to stream through a v2 writer
  // within it. Tiny video chunks inflate a small event set into many
  // records, so the trace grows while events/catalog/caches stay fixed.
  if (UnderSanitizer()) {
    GTEST_SKIP() << "RSS not meaningful under sanitizer instrumentation";
  }
  util::SetLogLevel(util::LogLevel::kWarn);

  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 256ULL << 20;
  config.chunk_bytes = 32ULL << 10;  // ~64x the record inflation of 2 MB
  const auto profile = synth::SiteProfile::V1(0.01);
  synth::WorkloadGenerator gen(profile, 99);
  const auto events = gen.Generate(8000);

  if (!util::ResetPeakRss()) {
    GTEST_SKIP() << "peak-RSS reset unsupported on this kernel";
  }
  const std::uint64_t baseline = util::CurrentRssBytes();

  const std::string path = ::testing::TempDir() + "/atlas_engine_big.v2";
  std::uint64_t written = 0;
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    trace::TraceWriter writer(out);
    trace::WriterSink sink(writer);
    const cdn::SiteJob job{&gen, &events, 3};
    cdn::RunSharded({&job, 1}, config, sink, /*threads=*/1);
    writer.Finish();
    written = writer.written();
  }
  const std::uint64_t peak = util::PeakRssBytes();
  std::remove(path.c_str());

  constexpr std::uint64_t kBudgetBytes = 48ULL << 20;
  // The materialized trace alone would blow the budget…
  ASSERT_GT(written * sizeof(trace::LogRecord), 2 * kBudgetBytes)
      << "trace too small to prove anything (records=" << written << ")";
  // …but the streamed run stays inside it.
  ASSERT_GE(peak, baseline);
  EXPECT_LT(peak - baseline, kBudgetBytes)
      << "engine exceeded its memory budget (grew "
      << (peak - baseline) / (1 << 20) << " MB for " << written
      << " records)";
}

}  // namespace
}  // namespace atlas
