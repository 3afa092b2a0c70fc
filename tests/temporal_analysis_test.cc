#include "analysis/temporal.h"

#include <gtest/gtest.h>

#include "analysis_fixtures.h"
#include "scenario_fixtures.h"
#include "util/time.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

TEST(HourlyVolumeTest, PercentagesSumTo100) {
  trace::TraceBuffer buf;
  for (int h = 0; h < 24; ++h) {
    buf.Add(MakeRecord({.t = h * util::kMillisPerHour, .url = 1}));
  }
  const auto result = ComputeHourlyVolume(buf, "X");
  double total = 0;
  for (double p : result.percent_by_hour) total += p;
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(HourlyVolumeTest, TimezoneShiftsHours) {
  trace::TraceBuffer buf;
  // Requests at 00:00 UTC from a user at UTC+2: local hour is 2.
  buf.Add(MakeRecord({.t = 0, .url = 1, .tz = 8}));
  const auto result = ComputeHourlyVolume(buf, "X");
  EXPECT_DOUBLE_EQ(result.percent_by_hour[2], 100.0);
  EXPECT_DOUBLE_EQ(result.percent_by_hour[0], 0.0);
}

TEST(HourlyVolumeTest, NegativeLocalTimeWraps) {
  // 00:30 UTC Saturday at UTC-8 is 16:30 Friday local; it must count in
  // hour 16, not crash.
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 30 * util::kMillisPerMinute, .url = 1, .tz = -32}));
  const auto result = ComputeHourlyVolume(buf, "X");
  EXPECT_DOUBLE_EQ(result.percent_by_hour[16], 100.0);
}

TEST(HourlyVolumeTest, PeakAndTrough) {
  trace::TraceBuffer buf;
  for (int i = 0; i < 10; ++i) {
    buf.Add(MakeRecord({.t = 2 * util::kMillisPerHour + i, .url = 1}));
  }
  buf.Add(MakeRecord({.t = 14 * util::kMillisPerHour, .url = 1}));
  const auto result = ComputeHourlyVolume(buf, "X");
  EXPECT_EQ(result.PeakHour(), 2);
  EXPECT_GT(result.PeakToMean(), 2.0);
}

TEST(HourlyVolumeTest, BytePercentagesIndependent) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 0, .url = 1, .bytes = 900}));
  buf.Add(MakeRecord({.t = util::kMillisPerHour, .url = 1, .bytes = 100}));
  const auto result = ComputeHourlyVolume(buf, "X");
  EXPECT_DOUBLE_EQ(result.percent_by_hour[0], 50.0);
  EXPECT_DOUBLE_EQ(result.percent_bytes_by_hour[0], 90.0);
}

TEST(HourlyVolumeTest, WeekSeriesAccumulates) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.t = 3 * util::kMillisPerDay, .url = 1}));
  const auto result = ComputeHourlyVolume(buf, "X");
  EXPECT_DOUBLE_EQ(result.week_series.Total(), 1.0);
  EXPECT_EQ(result.week_series.size(),
            static_cast<std::size_t>(util::kHoursPerWeek));
}

// Closed loop (Fig. 3): V-1's peak lands in the late-night/early-morning
// band while the non-adult control peaks in the evening; the phase gap is
// large.
TEST(HourlyVolumeClosedLoopTest, V1OppositeOfNonAdult) {
  cdn::SimulatorConfig config;
  const auto v1 =
      testutil::SimulateSite(synth::SiteProfile::V1(0.02), 0, config, 3);
  const auto n1 =
      testutil::SimulateSite(synth::SiteProfile::NonAdult(0.02), 1, config, 3);
  const auto hv1 = ComputeHourlyVolume(v1.trace, "V-1");
  const auto hn1 = ComputeHourlyVolume(n1.trace, "N-1");
  // N-1 (amplitude 0.45, peak 21:00) is sharply diurnal.
  EXPECT_GE(hn1.PeakHour(), 18);
  // Band comparison is robust at small scales where single peak hours are
  // noisy: V-1 concentrates in the late-night/early-morning band (23-07
  // local), N-1 in the evening band (17-23).
  const auto band_mass = [](const HourlyVolume& hv, int lo, int hi) {
    double mass = 0.0;
    for (int h = lo; h != hi; h = (h + 1) % 24) {
      mass += hv.percent_by_hour[static_cast<std::size_t>(h)];
    }
    return mass;
  };
  EXPECT_GT(band_mass(hv1, 23, 7), band_mass(hn1, 23, 7));
  EXPECT_GT(band_mass(hn1, 17, 23), band_mass(hv1, 17, 23));
}

}  // namespace
}  // namespace atlas::analysis
