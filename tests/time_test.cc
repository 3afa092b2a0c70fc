#include "util/time.h"

#include <gtest/gtest.h>

namespace atlas::util {
namespace {

TEST(HourOfDayTest, StartOfTrace) { EXPECT_EQ(HourOfDay(0), 0); }

TEST(HourOfDayTest, MidDay) {
  EXPECT_EQ(HourOfDay(13 * kMillisPerHour + 30 * kMillisPerMinute), 13);
}

TEST(HourOfDayTest, NextDayWraps) {
  EXPECT_EQ(HourOfDay(25 * kMillisPerHour), 1);
}

TEST(HourOfDayTest, NegativeWrapsIntoWeek) {
  // One hour before trace start = Friday 23:00 of the wrapped week.
  EXPECT_EQ(HourOfDay(-kMillisPerHour), 23);
}

TEST(FormatTimestampTest, Formats) {
  EXPECT_EQ(FormatTimestamp(0), "Sat 00:00:00");
  EXPECT_EQ(FormatTimestamp(kMillisPerDay + kMillisPerHour +
                            kMillisPerMinute + kMillisPerSecond),
            "Sun 01:01:01");
}

TEST(FormatDurationTest, PicksUnits) {
  EXPECT_EQ(FormatDuration(500), "500 ms");
  EXPECT_EQ(FormatDuration(2500), "2.5 s");
  EXPECT_EQ(FormatDuration(90 * kMillisPerSecond), "1.5 min");
  EXPECT_EQ(FormatDuration(kMillisPerHour * 3 / 2), "1.5 h");
  EXPECT_EQ(FormatDuration(kMillisPerDay * 2), "2.0 d");
}

}  // namespace
}  // namespace atlas::util
