#include "synth/temporal.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

namespace atlas::synth {
namespace {

TEST(SiteHourlyDemandTest, PeaksAtConfiguredHour) {
  SiteProfile p = SiteProfile::V1(0.01);
  p.peak_local_hour = 2.0;
  p.diurnal_amplitude = 0.4;
  const double at_peak = SiteHourlyDemand(p, 2.0);
  const double at_trough = SiteHourlyDemand(p, 14.0);
  EXPECT_GT(at_peak, at_trough);
  EXPECT_NEAR(at_peak, 1.4, 1e-9);
  EXPECT_NEAR(at_trough, 0.6, 1e-9);
}

TEST(SiteHourlyDemandTest, AlwaysPositive) {
  SiteProfile p = SiteProfile::V1(0.01);
  p.diurnal_amplitude = 0.99;
  for (double h = 0; h < 24; h += 0.5) {
    EXPECT_GT(SiteHourlyDemand(p, h), 0.0);
  }
}

TEST(WeekHourDistributionTest, SamplesConcentrateAtPeak) {
  SiteProfile p = SiteProfile::V1(0.01);
  p.peak_local_hour = 2.0;
  p.diurnal_amplitude = 0.5;
  WeekHourDistribution dist(p);
  util::Rng rng(3);
  std::array<int, 24> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const std::int64_t ms = dist.SampleLocalMs(rng);
    ASSERT_GE(ms, 0);
    ASSERT_LT(ms, util::kMillisPerWeek);
    ++counts[static_cast<std::size_t>((ms / util::kMillisPerHour) % 24)];
  }
  EXPECT_GT(counts[2], counts[14] * 2);
}

TEST(WeekHourDistributionTest, WeightsCoverAllHours) {
  const SiteProfile p = SiteProfile::P1(0.01);
  WeekHourDistribution dist(p);
  // Every hour of the week has positive weight, so every hour is drawn.
  util::Rng rng(5);
  std::array<int, util::kHoursPerWeek> draws{};
  for (int i = 0; i < 1000 * util::kHoursPerWeek; ++i) {
    ++draws[static_cast<std::size_t>(dist.SampleLocalMs(rng) /
                                     util::kMillisPerHour)];
  }
  for (const int n : draws) EXPECT_GT(n, 0);
}

TEST(PatternParamsTest, SampleRespectsTypeRanges) {
  util::Rng rng(5);
  const SiteProfile p = SiteProfile::V2(0.01);
  for (int i = 0; i < 200; ++i) {
    const auto long_lived =
        PatternParams::Sample(PatternType::kLongLived, p, rng);
    EXPECT_GE(long_lived.decay_tau_hours, 12.0);
    EXPECT_LE(long_lived.decay_tau_hours, 60.0);
    const auto short_lived =
        PatternParams::Sample(PatternType::kShortLived, p, rng);
    EXPECT_GE(short_lived.decay_tau_hours, 1.0);
    EXPECT_LE(short_lived.decay_tau_hours, 8.0);
    const auto flash = PatternParams::Sample(PatternType::kFlashCrowd, p, rng);
    EXPECT_GE(flash.spike_offset_ms, 0);
    EXPECT_LT(flash.spike_offset_ms, util::kMillisPerWeek);
  }
}

TEST(ObjectDemandMultiplierTest, ZeroBeforeInjection) {
  util::Rng rng(7);
  const SiteProfile p = SiteProfile::V1(0.01);
  const auto params = PatternParams::Sample(PatternType::kDiurnal, p, rng);
  const std::int64_t inject = 2 * util::kMillisPerDay;
  EXPECT_EQ(ObjectDemandMultiplier(params, inject, inject - 1, 0.0), 0.0);
  EXPECT_GT(ObjectDemandMultiplier(params, inject, inject + 1, 0.0), 0.0);
}

TEST(ObjectDemandMultiplierTest, ShortLivedDiesWithinHours) {
  util::Rng rng(9);
  const SiteProfile p = SiteProfile::V1(0.01);
  const auto params = PatternParams::Sample(PatternType::kShortLived, p, rng);
  const double at_start = ObjectDemandMultiplier(params, 0, 0, 0.0);
  const double after_2d =
      ObjectDemandMultiplier(params, 0, 2 * util::kMillisPerDay, 0.0);
  EXPECT_GT(at_start, 1.0);
  EXPECT_LT(after_2d, at_start * 0.01);
}

TEST(ObjectDemandMultiplierTest, LongLivedOutlivesShortLived) {
  util::Rng rng(11);
  const SiteProfile p = SiteProfile::V1(0.01);
  const auto long_lived =
      PatternParams::Sample(PatternType::kLongLived, p, rng);
  const auto short_lived =
      PatternParams::Sample(PatternType::kShortLived, p, rng);
  const std::int64_t t = util::kMillisPerDay;  // one day after injection
  const double long_rel =
      ObjectDemandMultiplier(long_lived, 0, t, 0.0) /
      ObjectDemandMultiplier(long_lived, 0, 0, 0.0);
  const double short_rel =
      ObjectDemandMultiplier(short_lived, 0, t, 0.0) /
      ObjectDemandMultiplier(short_lived, 0, 0, 0.0);
  EXPECT_GT(long_rel, short_rel * 10.0);
}

TEST(ObjectDemandMultiplierTest, FlashCrowdSpikes) {
  util::Rng rng(13);
  const SiteProfile p = SiteProfile::P2(0.01);
  auto params = PatternParams::Sample(PatternType::kFlashCrowd, p, rng);
  params.spike_offset_ms = 3 * util::kMillisPerDay;
  const double before =
      ObjectDemandMultiplier(params, 0, 2 * util::kMillisPerDay, 0.0);
  const double at_spike =
      ObjectDemandMultiplier(params, 0, 3 * util::kMillisPerDay, 0.0);
  EXPECT_LT(before, 0.1);
  EXPECT_GT(at_spike, 5.0);
}

TEST(ObjectDemandMultiplierTest, DiurnalIsPeriodic) {
  util::Rng rng(15);
  const SiteProfile p = SiteProfile::V1(0.01);
  auto params = PatternParams::Sample(PatternType::kDiurnal, p, rng);
  const std::int64_t t0 = util::kMillisPerDay;
  const double day1 = ObjectDemandMultiplier(params, 0, t0, 0.0);
  const double day2 =
      ObjectDemandMultiplier(params, 0, t0 + util::kMillisPerDay, 0.0);
  EXPECT_NEAR(day1, day2, 1e-9);
}

TEST(ObjectDemandCeilingTest, BoundsTheMultiplier) {
  util::Rng rng(17);
  const SiteProfile p = SiteProfile::V2(0.01);
  for (int type = 0; type < kNumPatternTypes; ++type) {
    const auto params =
        PatternParams::Sample(static_cast<PatternType>(type), p, rng);
    const double ceiling = ObjectDemandCeiling(params);
    for (std::int64_t t = 0; t < util::kMillisPerWeek;
         t += util::kMillisPerHour / 4) {
      EXPECT_LE(ObjectDemandMultiplier(params, 0, t, 0.0), ceiling + 1e-9)
          << "type " << type << " t " << t;
    }
  }
}

TEST(ObjectDemandMultiplierTest, WeeklyIntegralsComparableAcrossPatterns) {
  // The design invariant: every pattern type delivers a comparable weekly
  // demand integral (so Zipf weight alone controls total popularity).
  util::Rng rng(19);
  const SiteProfile p = SiteProfile::V2(0.01);
  std::array<double, kNumPatternTypes> integral{};
  const int kSamplesPerType = 40;
  for (int type = 0; type < kNumPatternTypes; ++type) {
    for (int s = 0; s < kSamplesPerType; ++s) {
      const auto params =
          PatternParams::Sample(static_cast<PatternType>(type), p, rng);
      double sum = 0.0;
      for (int h = 0; h < util::kHoursPerWeek; ++h) {
        sum += ObjectDemandMultiplier(
            params, 0, h * util::kMillisPerHour + util::kMillisPerHour / 2,
            0.0);
      }
      integral[static_cast<std::size_t>(type)] += sum / kSamplesPerType;
    }
  }
  for (int type = 0; type < kNumPatternTypes; ++type) {
    EXPECT_GT(integral[static_cast<std::size_t>(type)], 168.0 * 0.4)
        << ToString(static_cast<PatternType>(type));
    EXPECT_LT(integral[static_cast<std::size_t>(type)], 168.0 * 2.5)
        << ToString(static_cast<PatternType>(type));
  }
}

}  // namespace
}  // namespace atlas::synth
