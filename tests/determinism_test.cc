// The parallel-execution contract, enforced end to end: for a fixed seed,
// generation + simulation + analysis produce byte-identical traces and
// identical reports at 1, 2, and 8 threads, and a pinned golden digest
// catches accidental RNG-stream reordering (e.g. changing kGenerateShards
// or the per-shard draw order).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/suite.h"
#include "scenario_fixtures.h"
#include "synth/workload.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/par.h"

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
