#include "analysis/trend_cluster.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "analysis/suite.h"
#include "analysis_fixtures.h"
#include "scenario_fixtures.h"
#include "trace/block.h"
#include "util/logging.h"
#include "util/par.h"
#include "util/time.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;
using util::kMillisPerHour;

// Builds a trace with `n` planted objects per archetype: diurnal objects
// request hourly all week modulated by hour-of-day; short-lived ones burst
// for a few hours. Records are emitted in time order (hour, repetition,
// object), diurnal objects first at equal timestamps.
trace::TraceBuffer PlantedTrace(int per_type, int requests_scale = 2) {
  trace::TraceBuffer buf;
  std::uint64_t user = 1000;
  const auto add = [&](std::int64_t t, std::uint64_t url) {
    buf.Add(MakeRecord({.t = t, .url = url, .user = user++,
                        .type = trace::FileType::kJpg}));
  };
  for (int h = 0; h < util::kHoursPerWeek; ++h) {
    // Diurnal: requests every hour, more at "night" (peak hours 0-7).
    const int diurnal_reps = 1 + requests_scale * ((h % 24) < 8 ? 2 : 0);
    // Short-lived: a burst in the first 6 hours of day 0.
    const int burst_reps = h < 6 ? 12 * requests_scale : 0;
    for (int r = 0; r < std::max(diurnal_reps, burst_reps); ++r) {
      const std::int64_t t = h * kMillisPerHour + r;
      for (int obj = 0; obj < per_type && r < diurnal_reps; ++obj) {
        add(t, static_cast<std::uint64_t>(1 + obj));
      }
      for (int obj = 0; obj < per_type && r < burst_reps; ++obj) {
        add(t, static_cast<std::uint64_t>(1 + per_type + obj));
      }
    }
  }
  return buf;
}

TEST(BuildObjectHourlySeriesTest, FiltersByClassAndThreshold) {
  trace::TraceBuffer buf;
  // 40 image requests for object 1, 5 for object 2, 40 video for object 3.
  for (int i = 0; i < 40; ++i) {
    buf.Add(MakeRecord({.t = i * kMillisPerHour, .url = 1,
                        .type = trace::FileType::kJpg}));
  }
  for (int i = 0; i < 5; ++i) {
    buf.Add(MakeRecord({.t = i, .url = 2, .type = trace::FileType::kJpg}));
  }
  for (int i = 0; i < 40; ++i) {
    buf.Add(MakeRecord({.t = i * kMillisPerHour, .url = 3,
                        .type = trace::FileType::kMp4}));
  }
  TrendClusterConfig config;
  config.min_requests = 30;
  config.content_class = trace::ContentClass::kImage;
  const auto series = BuildObjectHourlySeries(buf, config);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].first, 1u);
  EXPECT_EQ(series[0].second.size(),
            static_cast<std::size_t>(util::kHoursPerWeek));
}

TEST(BuildObjectHourlySeriesTest, SeriesAreSumNormalized) {
  trace::TraceBuffer buf;
  for (int i = 0; i < 50; ++i) {
    buf.Add(MakeRecord({.t = (i % 100) * kMillisPerHour, .url = 1,
                        .type = trace::FileType::kJpg}));
  }
  TrendClusterConfig config;
  config.content_class = trace::ContentClass::kImage;
  const auto series = BuildObjectHourlySeries(buf, config);
  ASSERT_EQ(series.size(), 1u);
  double total = 0;
  for (double v : series[0].second) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(BuildObjectHourlySeriesTest, MaxObjectsCap) {
  trace::TraceBuffer buf;
  for (std::uint64_t obj = 1; obj <= 20; ++obj) {
    for (int i = 0; i < 40; ++i) {
      buf.Add(MakeRecord({.t = i * kMillisPerHour, .url = obj,
                          .type = trace::FileType::kJpg}));
    }
  }
  TrendClusterConfig config;
  config.content_class = trace::ContentClass::kImage;
  config.max_objects = 7;
  EXPECT_EQ(BuildObjectHourlySeries(buf, config).size(), 7u);
}

TEST(ComputeTrendClustersTest, SeparatesPlantedArchetypes) {
  const auto buf = PlantedTrace(8);
  TrendClusterConfig config;
  config.content_class = trace::ContentClass::kImage;
  config.k = 2;
  config.min_requests = 30;
  const auto result = ComputeTrendClusters(buf, "X", config);
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.clustered_objects, 16u);
  // Two equal-size clusters, one per archetype.
  EXPECT_EQ(result.clusters[0].member_count, 8u);
  EXPECT_EQ(result.clusters[1].member_count, 8u);
  // Shapes: one diurnal, one short-lived.
  std::map<synth::PatternType, int> shapes;
  for (const auto& c : result.clusters) ++shapes[c.shape];
  EXPECT_EQ(shapes[synth::PatternType::kDiurnal], 1);
  EXPECT_EQ(shapes[synth::PatternType::kShortLived], 1);
  EXPECT_GT(result.silhouette, 0.5);
}

TEST(ComputeTrendClustersTest, MedoidSeriesWellFormed) {
  const auto buf = PlantedTrace(5);
  TrendClusterConfig config;
  config.content_class = trace::ContentClass::kImage;
  config.k = 2;
  const auto result = ComputeTrendClusters(buf, "X", config);
  for (const auto& c : result.clusters) {
    EXPECT_EQ(c.medoid_series.size(),
              static_cast<std::size_t>(util::kHoursPerWeek));
    EXPECT_EQ(c.pointwise_stddev.size(), c.medoid_series.size());
    double total = 0;
    for (double v : c.medoid_series) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_NE(c.medoid_url_hash, 0u);
  }
  // Shares sum to 1 over clustered objects.
  double share = 0;
  for (const auto& c : result.clusters) share += c.share;
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(ComputeTrendClustersTest, TooFewObjectsDegradesGracefully) {
  trace::TraceBuffer buf;
  for (int i = 0; i < 40; ++i) {
    buf.Add(MakeRecord({.t = i * kMillisPerHour, .url = 1,
                        .type = trace::FileType::kJpg}));
  }
  TrendClusterConfig config;
  config.content_class = trace::ContentClass::kImage;
  const auto result = ComputeTrendClusters(buf, "X", config);
  EXPECT_EQ(result.clustered_objects, 1u);
  EXPECT_TRUE(result.clusters.empty());
}

TEST(ComputeTrendClustersTest, ShareOfSumsPatternShares) {
  const auto buf = PlantedTrace(6);
  TrendClusterConfig config;
  config.content_class = trace::ContentClass::kImage;
  config.k = 2;
  const auto result = ComputeTrendClusters(buf, "X", config);
  EXPECT_NEAR(result.MemberShareOf(synth::PatternType::kDiurnal) +
                  result.MemberShareOf(synth::PatternType::kShortLived) +
                  result.MemberShareOf(synth::PatternType::kLongLived) +
                  result.MemberShareOf(synth::PatternType::kFlashCrowd) +
                  result.MemberShareOf(synth::PatternType::kOutlier),
              1.0, 1e-9);
}

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

// SuiteConfig::threads = 1 must keep the whole analysis, trend DTW
// included, on the calling thread, even when the process default says 4:
// CPU spent by any other thread of the process shows in RUSAGE_SELF but
// not in RUSAGE_THREAD.
TEST(TrendClusterThreadsTest, SuiteThreadCountBoundsTrendDtw) {
  util::SetLogLevel(util::LogLevel::kWarn);
  const auto buf = PlantedTrace(40);  // one 80-object image panel
  trace::PublisherRegistry registry;
  registry.Register("X", trace::SiteKind::kAdultImage);
  SuiteConfig config;
  config.threads = 1;
  StreamingAnalysis stream(registry, config);
  trace::BufferBlockSource source(buf);
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    stream.AddBlock(*block);
  }

  util::SetDefaultThreads(4);
  const double self_before = CpuSeconds(RUSAGE_SELF);
  const double thread_before = CpuSeconds(RUSAGE_THREAD);
  const auto sites = stream.Finalize();
  const double thread_cpu = CpuSeconds(RUSAGE_THREAD) - thread_before;
  const double self_cpu = CpuSeconds(RUSAGE_SELF) - self_before;
  util::SetDefaultThreads(0);  // restore the hardware default

  ASSERT_EQ(sites.size(), 1u);
  ASSERT_TRUE(sites[0].image_trends.has_value());
  EXPECT_EQ(sites[0].image_trends->clustered_objects, 80u);
  EXPECT_LE(self_cpu, thread_cpu + 0.05)
      << "other threads used " << self_cpu - thread_cpu << " s of CPU";
}

// Closed loop (Fig. 8): V-2's video clusters include both sustained
// (diurnal) and decaying (long-/short-lived) populations.
TEST(TrendClusterClosedLoopTest, V2VideoMixedTrends) {
  cdn::SimulatorConfig config;
  const auto study =
      testutil::RunScenario({synth::SiteProfile::V2(0.04)}, config, 11);
  TrendClusterConfig tc;
  tc.content_class = trace::ContentClass::kVideo;
  const auto result = ComputeTrendClusters(study.trace, "V-2", tc);
  ASSERT_GE(result.clustered_objects, 20u);
  // Member-level shares are robust at small scales where a single mixed
  // mega-cluster can swallow the plurality vote.
  const double sustained = result.MemberShareOf(synth::PatternType::kDiurnal);
  const double decaying =
      result.MemberShareOf(synth::PatternType::kLongLived) +
      result.MemberShareOf(synth::PatternType::kShortLived) +
      result.MemberShareOf(synth::PatternType::kFlashCrowd);
  EXPECT_GT(sustained, 0.05);
  EXPECT_GT(decaying, 0.15);
}

}  // namespace
}  // namespace atlas::analysis
