#include "synth/workload.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "util/time.h"

namespace atlas::synth {
namespace {

TEST(WorkloadGeneratorTest, HitsRequestBudget) {
  WorkloadGenerator gen(SiteProfile::P1(0.01), 1);
  const auto events = gen.Generate(5000);
  EXPECT_EQ(events.size(), 5000u);
}

TEST(WorkloadGeneratorTest, DefaultBudgetFromProfile) {
  const auto profile = SiteProfile::P2(0.01);
  WorkloadGenerator gen(profile, 1);
  const auto events = gen.Generate();
  EXPECT_EQ(events.size(), profile.total_requests);
}

TEST(WorkloadGeneratorTest, EventsSortedAndInWeek) {
  WorkloadGenerator gen(SiteProfile::V2(0.01), 2);
  const auto events = gen.Generate(8000);
  std::int64_t prev = 0;
  for (const auto& ev : events) {
    EXPECT_GE(ev.timestamp_ms, prev);
    EXPECT_GE(ev.timestamp_ms, 0);
    EXPECT_LT(ev.timestamp_ms, util::kMillisPerWeek);
    prev = ev.timestamp_ms;
  }
}

TEST(WorkloadGeneratorTest, IndicesInRange) {
  WorkloadGenerator gen(SiteProfile::S1(0.01), 3);
  const auto events = gen.Generate(5000);
  for (const auto& ev : events) {
    EXPECT_LT(ev.user_index, gen.users().size());
    EXPECT_LT(ev.object_index, gen.catalog().size());
    EXPECT_GT(ev.watch_fraction, 0.0);
    EXPECT_LE(ev.watch_fraction, 1.0);
  }
}

TEST(WorkloadGeneratorTest, Deterministic) {
  WorkloadGenerator a(SiteProfile::V1(0.01), 42);
  WorkloadGenerator b(SiteProfile::V1(0.01), 42);
  const auto ea = a.Generate(2000);
  const auto eb = b.Generate(2000);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].timestamp_ms, eb[i].timestamp_ms);
    EXPECT_EQ(ea[i].user_index, eb[i].user_index);
    EXPECT_EQ(ea[i].object_index, eb[i].object_index);
  }
}

TEST(WorkloadGeneratorTest, DifferentSeedsDiffer) {
  WorkloadGenerator a(SiteProfile::V1(0.01), 1);
  WorkloadGenerator b(SiteProfile::V1(0.01), 2);
  const auto ea = a.Generate(1000);
  const auto eb = b.Generate(1000);
  int same = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    if (ea[i].object_index == eb[i].object_index) ++same;
  }
  EXPECT_LT(same, 900);
}

TEST(WorkloadGeneratorTest, SessionStartsMarked) {
  WorkloadGenerator gen(SiteProfile::V1(0.01), 5);
  const auto events = gen.Generate(5000);
  std::size_t session_starts = 0;
  for (const auto& ev : events) session_starts += ev.session_start ? 1 : 0;
  // Roughly one session start per mean_requests_per_session events.
  EXPECT_GT(session_starts, events.size() / 10);
  EXPECT_LT(session_starts, events.size());
}

TEST(WorkloadGeneratorTest, RepeatRateTracksAddictionKnob) {
  SiteProfile addictive = SiteProfile::V1(0.01);
  addictive.repeat_request_prob = 0.5;
  addictive.favorite_adopt_prob = 0.8;
  SiteProfile casual = addictive;
  casual.repeat_request_prob = 0.0;

  WorkloadGenerator a(addictive, 7);
  WorkloadGenerator b(casual, 7);
  const auto count_repeats = [](const std::vector<RequestEvent>& evs) {
    std::size_t n = 0;
    for (const auto& ev : evs) n += ev.is_repeat ? 1 : 0;
    return n;
  };
  EXPECT_GT(count_repeats(a.Generate(10000)), 500u);
  EXPECT_EQ(count_repeats(b.Generate(10000)), 0u);
}

TEST(WorkloadGeneratorTest, AnomalyRatesRoughlyRespected) {
  SiteProfile profile = SiteProfile::P1(0.01);
  profile.hotlink_rate = 0.05;
  profile.bad_range_rate = 0.03;
  profile.beacon_rate = 0.02;
  WorkloadGenerator gen(profile, 9);
  const auto events = gen.Generate(20000);
  std::map<Anomaly, int> counts;
  for (const auto& ev : events) ++counts[ev.anomaly];
  EXPECT_NEAR(counts[Anomaly::kHotlink] / 20000.0, 0.05, 0.01);
  EXPECT_NEAR(counts[Anomaly::kBadRange] / 20000.0, 0.03, 0.01);
  EXPECT_NEAR(counts[Anomaly::kBeacon] / 20000.0, 0.02, 0.01);
}

TEST(WorkloadGeneratorTest, ChunkInflationEstimate) {
  WorkloadGenerator video(SiteProfile::V1(0.01), 11);
  WorkloadGenerator image(SiteProfile::P1(0.01), 11);
  // Video-heavy sites inflate strongly under 2 MB chunking; image sites
  // barely at all.
  EXPECT_GT(video.EstimateRecordsPerRequest(2 << 20), 2.0);
  EXPECT_LT(image.EstimateRecordsPerRequest(2 << 20), 1.5);
  // Chunking disabled -> no inflation.
  EXPECT_DOUBLE_EQ(video.EstimateRecordsPerRequest(0), 1.0);
}

TEST(WorkloadGeneratorTest, PopularObjectsDominat) {
  WorkloadGenerator gen(SiteProfile::V1(0.01), 13);
  const auto events = gen.Generate(20000);
  std::map<std::uint32_t, int> counts;
  for (const auto& ev : events) ++counts[ev.object_index];
  int top = 0;
  for (const auto& [idx, c] : counts) top = std::max(top, c);
  // Zipf demand: the hottest object gets far more than the uniform share.
  EXPECT_GT(top, 20000 / static_cast<int>(gen.catalog().size()) * 5);
}

TEST(GenerateSitesTest, RaisesTheLowestFailingSitesError) {
  auto profiles = SiteProfile::PaperAdultSites(0.01);
  profiles[1].zipf_s = -1.0;
  profiles[3].mean_requests_per_session = 0.5;
  const std::vector<std::uint64_t> seeds(profiles.size(), 7);
  for (const int threads : {1, 4}) {
    try {
      GenerateSites(profiles, seeds, 2 << 20, threads);
      ADD_FAILURE() << "invalid profiles were accepted at " << threads
                    << " threads";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "SiteProfile: zipf_s < 0") << threads;
    }
  }
}

TEST(GenerateSitesTest, RejectsASeedCountThatDiffersFromTheSites) {
  const auto profiles = SiteProfile::PaperAdultSites(0.01);
  const std::vector<std::uint64_t> seeds(profiles.size() - 1, 7);
  EXPECT_THROW(GenerateSites(profiles, seeds, 2 << 20), std::invalid_argument);
}

}  // namespace
}  // namespace atlas::synth
