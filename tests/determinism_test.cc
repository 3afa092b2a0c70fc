// The parallel-execution contract, enforced end to end: for a fixed seed,
// generation + simulation + analysis produce byte-identical traces and
// identical reports at 1, 2, and 8 threads, and pinned golden digests
// catch accidental RNG-stream reordering (e.g. changing kGenerateShards
// or the per-shard draw order) or a change in how timestamp ties sort.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/suite.h"
#include "scenario_fixtures.h"
#include "synth/workload.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/par.h"
#include "util/rng.h"

namespace atlas {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// Restores the process-wide thread default on scope exit so the thread
// counts pinned here never leak into other suites.
struct ThreadDefaultGuard {
  ~ThreadDefaultGuard() { util::SetDefaultThreads(0); }
};

std::string SimulatedTraceBytes(std::uint64_t seed) {
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 256ULL << 20;
  const auto result =
      testutil::SimulateSite(synth::SiteProfile::P1(0.01), 7, config, seed);
  return testutil::FlatTraceBytes(result.trace);
}

TEST(DeterminismTest, GeneratorEventsIdenticalAcrossThreadCounts) {
  util::SetLogLevel(util::LogLevel::kWarn);
  std::vector<synth::RequestEvent> reference;
  for (const int threads : kThreadCounts) {
    synth::WorkloadGenerator gen(synth::SiteProfile::V1(0.01), 42);
    const auto events = gen.Generate(4000, threads);
    ASSERT_EQ(events.size(), 4000u);
    if (threads == 1) {
      reference = events;
      continue;
    }
    ASSERT_EQ(events.size(), reference.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto& a = reference[i];
      const auto& b = events[i];
      ASSERT_EQ(a.timestamp_ms, b.timestamp_ms) << "event " << i;
      ASSERT_EQ(a.user_index, b.user_index) << "event " << i;
      ASSERT_EQ(a.object_index, b.object_index) << "event " << i;
      ASSERT_EQ(a.is_repeat, b.is_repeat) << "event " << i;
      ASSERT_EQ(a.session_start, b.session_start) << "event " << i;
      ASSERT_EQ(a.watch_fraction, b.watch_fraction) << "event " << i;
      ASSERT_EQ(a.anomaly, b.anomaly) << "event " << i;
    }
  }
}

TEST(DeterminismTest, SimulatedTraceByteIdenticalAcrossThreadCounts) {
  util::SetLogLevel(util::LogLevel::kWarn);
  ThreadDefaultGuard guard;
  std::string reference;
  for (const int threads : kThreadCounts) {
    util::SetDefaultThreads(threads);
    const std::string bytes = SimulatedTraceBytes(99);
    if (threads == 1) {
      reference = bytes;
      ASSERT_FALSE(reference.empty());
      continue;
    }
    EXPECT_EQ(bytes, reference) << "trace bytes diverged at " << threads
                                << " threads";
  }
}

TEST(DeterminismTest, RepeatedRunsAreByteIdentical) {
  util::SetLogLevel(util::LogLevel::kWarn);
  EXPECT_EQ(SimulatedTraceBytes(7), SimulatedTraceBytes(7));
  EXPECT_NE(SimulatedTraceBytes(7), SimulatedTraceBytes(8));
}

// FNV-1a digest over the flat P-1 trace bytes (seed 99, scale 0.01). If this
// moves, per-shard RNG stream assignment changed — a silent break of every
// recorded trace. Update it only for a deliberate generator change, and say
// so in the commit message.
constexpr std::uint64_t kGoldenTraceDigest = 0x749ed138fcbd8c3dULL;

TEST(DeterminismTest, GoldenTraceDigestPinned) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const std::string bytes = SimulatedTraceBytes(99);
  EXPECT_EQ(util::Fnv1a64(bytes), kGoldenTraceDigest);
}

// FNV-1a over every field of every event, little-endian, in stream order.
std::uint64_t EventsDigest(const std::vector<synth::RequestEvent>& events) {
  std::string bytes;
  const auto put = [&bytes](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  for (const auto& e : events) {
    put(static_cast<std::uint64_t>(e.timestamp_ms), 8);
    put(e.user_index, 4);
    put(e.object_index, 4);
    put(e.is_repeat, 1);
    put(e.session_start, 1);
    put(util::DoubleBits(e.watch_fraction), 8);
    put(static_cast<std::uint64_t>(e.anomaly), 1);
  }
  return util::Fnv1a64(bytes);
}

// EventsDigest of each paper site's week (V-1, V-2, P-1, P-2, S-1) at scale
// 0.2 under StreamScenario's seed plan for seed 42 and the default chunk
// size's logical budget, pinned when each site was still generated on its
// own, one after another. At this scale the weeks hold equal timestamps,
// so the digests also pin how ties are ordered.
constexpr std::uint64_t kPaperSiteEventDigests[] = {
    0x961c4bdc516e0fa3ULL, 0x9637b953a468d639ULL, 0x59fd9d814469095fULL,
    0xd16a37d897ba7afeULL, 0xd571002b014362d4ULL};

TEST(DeterminismTest, GenerateSitesMatchesPinnedWeeksAndEachGenerator) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto profiles = synth::SiteProfile::PaperAdultSites(0.2);
  ASSERT_EQ(profiles.size(), std::size(kPaperSiteEventDigests));
  util::Rng seeder(42);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    seeds.push_back(seeder.Next());
  }
  const std::uint64_t chunk_bytes = cdn::SimulatorConfig().chunk_bytes;

  for (const int threads : kThreadCounts) {
    const auto sites =
        synth::GenerateSites(profiles, seeds, chunk_bytes, threads);
    ASSERT_EQ(sites.size(), profiles.size());
    std::size_t ties = 0;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const auto& events = sites[i].events;
      EXPECT_EQ(events.size(), sites[i].generator->LogicalBudget(chunk_bytes));
      for (std::size_t k = 1; k < events.size(); ++k) {
        ties += events[k].timestamp_ms == events[k - 1].timestamp_ms ? 1 : 0;
      }
      EXPECT_EQ(EventsDigest(events), kPaperSiteEventDigests[i])
          << profiles[i].name << " at " << threads << " threads";
    }
    EXPECT_GT(ties, 0u) << "no equal timestamps: the tie order is untested";
  }

  // Each generator's own Generate draws the same week.
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    synth::WorkloadGenerator gen(profiles[i], seeds[i]);
    EXPECT_EQ(EventsDigest(gen.Generate(gen.LogicalBudget(chunk_bytes), 2)),
              kPaperSiteEventDigests[i])
        << profiles[i].name;
  }
}

TEST(DeterminismTest, AnalysisReportIdenticalAcrossThreadCounts) {
  util::SetLogLevel(util::LogLevel::kWarn);
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes = 512ULL << 20;
  const auto study = testutil::RunPaperStudy(0.01, config, 42);

  std::string reference;
  for (const int threads : kThreadCounts) {
    analysis::SuiteConfig suite_config;
    // Trends exercise finalize's second phase (each panel's PairwiseDtw
    // blocks spread over every worker); keep the clustered set small so the
    // test stays fast.
    suite_config.trend.min_requests = 60;
    suite_config.trend.max_objects = 40;
    suite_config.threads = threads;
    trace::BufferBlockSource source(study.trace);
    const analysis::AnalysisSuite suite(source, study.registry(),
                                        suite_config);
    EXPECT_EQ(suite.sites().size(), 5u);
    std::ostringstream out;
    suite.Render(out);
    if (threads == 1) {
      reference = out.str();
      ASSERT_FALSE(reference.empty());
      continue;
    }
    EXPECT_EQ(out.str(), reference)
        << "report diverged at " << threads << " threads";
  }
}

}  // namespace
}  // namespace atlas
