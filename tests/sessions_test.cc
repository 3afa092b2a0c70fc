#include "analysis/sessions.h"

#include <gtest/gtest.h>

#include "analysis/aging.h"
#include "analysis_fixtures.h"
#include "scenario_fixtures.h"
#include "util/rng.h"
#include "util/time.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;
using util::kMillisPerMinute;

// Sessionization runs through ComputeSessions' SessionAccumulator; the
// result carries per-session lengths (seconds) and request counts.
TEST(SessionizeTest, TimeoutSplitsSessions) {
  trace::TraceBuffer buf;
  // User 1: requests at 0, 1min, 2min (one session), then 30min (second).
  buf.Add(MakeRecord({.t = 0, .user = 1}));
  buf.Add(MakeRecord({.t = kMillisPerMinute, .user = 1}));
  buf.Add(MakeRecord({.t = 2 * kMillisPerMinute, .user = 1}));
  buf.Add(MakeRecord({.t = 30 * kMillisPerMinute, .user = 1}));
  const auto result = ComputeSessions(buf, "X");
  ASSERT_EQ(result.session_count, 2u);
  EXPECT_EQ(result.requests_per_session.sorted_samples(),
            (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(result.session_length_seconds.sorted_samples(),
            (std::vector<double>{0.0, 120.0}));
}

TEST(SessionizeTest, BoundaryGapExactlyTimeoutStays) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .user = 1}));
  buf.Add(MakeRecord({.t = kSessionTimeoutMs, .user = 1}));
  EXPECT_EQ(ComputeSessions(buf, "X").session_count, 1u);
  trace::TraceBuffer buf2;
  buf2.Add(MakeRecord({.t = 0, .user = 1}));
  buf2.Add(MakeRecord({.t = kSessionTimeoutMs + 1, .user = 1}));
  EXPECT_EQ(ComputeSessions(buf2, "X").session_count, 2u);
}

TEST(SessionizeTest, UsersIndependent) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .user = 1}));
  buf.Add(MakeRecord({.t = 1000, .user = 2}));
  EXPECT_EQ(ComputeSessions(buf, "X").session_count, 2u);
}

TEST(SessionizeTest, UnsortedInputHandled) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 2 * kMillisPerMinute, .user = 1}));
  buf.Add(MakeRecord({.t = 0, .user = 1}));
  const auto result = ComputeSessions(buf, "X");
  ASSERT_EQ(result.session_count, 1u);
  EXPECT_DOUBLE_EQ(result.session_length_seconds.Max(), 120.0);
}

TEST(SessionizeTest, BadTimeoutThrows) {
  EXPECT_THROW(ComputeSessions(trace::TraceBuffer{}, "X", 0),
               std::invalid_argument);
}

TEST(ComputeSessionsTest, IatIncludesInterSessionGaps) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .user = 1}));
  buf.Add(MakeRecord({.t = 10 * 1000, .user = 1}));
  buf.Add(MakeRecord({.t = 3600 * 1000, .user = 1}));
  const auto result = ComputeSessions(buf, "X");
  EXPECT_EQ(result.iat_seconds.count(), 2u);
  EXPECT_DOUBLE_EQ(result.iat_seconds.Max(), 3590.0);
}

TEST(ComputeSessionsTest, RequestsPerSessionDistribution) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .user = 1}));
  buf.Add(MakeRecord({.t = 1000, .user = 1}));
  buf.Add(MakeRecord({.t = 0, .user = 2}));
  const auto result = ComputeSessions(buf, "X");
  EXPECT_EQ(result.session_count, 2u);
  // Sessions of 2 and 1 requests.
  EXPECT_DOUBLE_EQ(result.requests_per_session.Median(), 1.5);
}

// Closed loop (Figs. 11-12): video sites have much shorter IATs than image
// sites, and their sessions last on the order of a minute.
TEST(SessionsClosedLoopTest, VideoShorterIatThanImage) {
  cdn::SimulatorConfig config;
  const auto v1 =
      testutil::SimulateSite(synth::SiteProfile::V1(0.01), 0, config, 3);
  const auto p1 =
      testutil::SimulateSite(synth::SiteProfile::P1(0.01), 1, config, 3);
  const auto sv = ComputeSessions(v1.trace, "V-1");
  const auto sp = ComputeSessions(p1.trace, "P-1");
  // Paper: video median IAT < 10 min; image-heavy median > 1 h.
  EXPECT_LT(sv.MedianIatSeconds(), 600.0);
  EXPECT_GT(sp.MedianIatSeconds(), 600.0);
  EXPECT_LT(sv.MedianIatSeconds(), sp.MedianIatSeconds() / 10.0);
  // Video sessions run minutes, not hours.
  EXPECT_GT(sv.MedianSessionSeconds(), 10.0);
  EXPECT_LT(sv.MedianSessionSeconds(), 600.0);
}

// The two accumulators that require time order are fed an unsorted buffer
// as one block whose rows go to AddBatch in stable time order. Their
// results must equal those on the time-sorted buffer exactly.
TEST(TimeOrderedComputeTest, ShuffledBufferMatchesSorted) {
  cdn::SimulatorConfig config;
  const auto sim =
      testutil::SimulateSite(synth::SiteProfile::P1(0.01), 0, config, 5);
  const trace::TraceBuffer& sorted = sim.trace;
  ASSERT_TRUE(sorted.IsSortedByTime());
  ASSERT_GT(sorted.size(), 1000u);
  trace::TraceBuffer shuffled = sorted;
  util::Rng rng(9);
  rng.Shuffle(shuffled.mutable_records());
  ASSERT_FALSE(shuffled.IsSortedByTime());

  const auto s_sorted = ComputeSessions(sorted, "P-1");
  const auto s_shuffled = ComputeSessions(shuffled, "P-1");
  EXPECT_EQ(s_shuffled.session_count, s_sorted.session_count);
  EXPECT_EQ(s_shuffled.iat_seconds.sorted_samples(),
            s_sorted.iat_seconds.sorted_samples());
  EXPECT_EQ(s_shuffled.session_length_seconds.sorted_samples(),
            s_sorted.session_length_seconds.sorted_samples());
  EXPECT_EQ(s_shuffled.requests_per_session.sorted_samples(),
            s_sorted.requests_per_session.sorted_samples());

  const auto a_sorted = ComputeAging(sorted, "P-1");
  const auto a_shuffled = ComputeAging(shuffled, "P-1");
  EXPECT_EQ(a_shuffled.observable_objects, a_sorted.observable_objects);
  EXPECT_EQ(a_shuffled.fraction_requested, a_sorted.fraction_requested);
  EXPECT_EQ(a_shuffled.fraction_requested_uncorrected,
            a_sorted.fraction_requested_uncorrected);
  EXPECT_EQ(a_shuffled.requested_all_days, a_sorted.requested_all_days);
  EXPECT_EQ(a_shuffled.silent_after_3_days, a_sorted.silent_after_3_days);
}

}  // namespace
}  // namespace atlas::analysis
