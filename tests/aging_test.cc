#include "analysis/aging.h"

#include <gtest/gtest.h>

#include "analysis_fixtures.h"
#include "scenario_fixtures.h"
#include "util/time.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;
using util::kMillisPerDay;

TEST(AgingTest, DayOneIsAlwaysRequested) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .url = 1}));
  buf.Add(MakeRecord({.t = 6 * kMillisPerDay, .url = 1}));
  const auto result = ComputeAging(buf, "X");
  // Every object is requested on its day 1 by construction of first-seen.
  EXPECT_DOUBLE_EQ(result.fraction_requested[0], 1.0);
}

TEST(AgingTest, DeclineTracksActivity) {
  trace::TraceBuffer buf;
  // Object 1: active days 1 and 2 only. Object 2: active all 7 days.
  buf.Add(MakeRecord({.t = 0, .url = 1}));
  buf.Add(MakeRecord({.t = kMillisPerDay + 5, .url = 1}));
  for (int d = 0; d < 7; ++d) {
    buf.Add(MakeRecord({.t = d * kMillisPerDay + 10, .url = 2}));
  }
  const auto result = ComputeAging(buf, "X");
  EXPECT_DOUBLE_EQ(result.fraction_requested[0], 1.0);
  EXPECT_DOUBLE_EQ(result.fraction_requested[1], 1.0);
  EXPECT_DOUBLE_EQ(result.fraction_requested[2], 0.5);
  EXPECT_DOUBLE_EQ(result.fraction_requested[6], 0.5);
  EXPECT_DOUBLE_EQ(result.requested_all_days, 0.5);
  EXPECT_DOUBLE_EQ(result.silent_after_3_days, 0.5);
}

TEST(AgingTest, LateObjectsHaveShortObservableWindows) {
  trace::TraceBuffer buf;
  // Trace spans 7 days via an early long-lived object.
  for (int d = 0; d < 7; ++d) {
    buf.Add(MakeRecord({.t = d * kMillisPerDay, .url = 1}));
  }
  // An object first seen on day 6 only has ~1-2 observable days; it must
  // not be counted in the day-5 denominator.
  buf.Add(MakeRecord({.t = 6 * kMillisPerDay, .url = 2}));
  const auto result = ComputeAging(buf, "X");
  EXPECT_EQ(result.observable_objects[6], 1u);  // only object 1
  EXPECT_EQ(result.observable_objects[0], 2u);
}

TEST(AgingTest, EmptyTraceSafe) {
  const auto result = ComputeAging(trace::TraceBuffer{}, "E");
  EXPECT_DOUBLE_EQ(result.fraction_requested[0], 0.0);
}

// Closed loop (Fig. 7): fraction requested declines with age; a sizeable
// share of objects goes silent after day 3.
TEST(AgingClosedLoopTest, DecliningShape) {
  cdn::SimulatorConfig config;
  const auto sim =
      testutil::SimulateSite(synth::SiteProfile::V2(0.02), 0, config, 7);
  const auto result = ComputeAging(sim.trace, "V-2");
  EXPECT_DOUBLE_EQ(result.fraction_requested[0], 1.0);
  EXPECT_LT(result.fraction_requested[6], 0.8);
  EXPECT_GT(result.silent_after_3_days, 0.1);
  EXPECT_LT(result.requested_all_days, 0.6);
  // Monotone-ish decline: day 7 below day 2.
  EXPECT_LT(result.fraction_requested[6], result.fraction_requested[1]);
}

}  // namespace
}  // namespace atlas::analysis
