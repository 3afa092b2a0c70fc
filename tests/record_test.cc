#include "trace/record.h"

#include <gtest/gtest.h>

#include "trace/block.h"

namespace atlas::trace {
namespace {

// Local time of `r` as the analysis reads it: through a RecordBlock row.
std::int64_t LocalMs(const LogRecord& r) {
  RecordBlock block;
  block.PushBack(r);
  return block.LocalTimestampMs(0);
}

TEST(RecordTest, LocalTimestampAppliesOffset) {
  LogRecord r;
  r.timestamp_ms = 1000000;
  r.tz_offset_quarter_hours = 4;  // +1h
  EXPECT_EQ(LocalMs(r), 1000000 + 3600 * 1000);
  r.tz_offset_quarter_hours = -2;  // -30min
  EXPECT_EQ(LocalMs(r), 1000000 - 30 * 60 * 1000);
}

// A record carries its user's UTC offset in quarter hours, so every whole,
// half-hour and quarter-hour zone converts exactly.
TEST(TimeZoneTest, UtcIsZero) {
  LogRecord r;
  r.timestamp_ms = 123456;
  EXPECT_EQ(LocalMs(r), 123456);
}

TEST(TimeZoneTest, WholeHourOffsets) {
  LogRecord r;
  r.timestamp_ms = 10 * 3600 * 1000;
  r.tz_offset_quarter_hours = -32;  // UTC-8
  EXPECT_EQ(LocalMs(r), 2 * 3600 * 1000);
}

TEST(TimeZoneTest, HalfHourOffset) {
  LogRecord r;
  r.tz_offset_quarter_hours = 22;  // India, UTC+5:30
  EXPECT_EQ(LocalMs(r), (5 * 60 + 30) * 60 * 1000);
}

TEST(TimeZoneTest, QuarterHourOffset) {
  LogRecord r;
  r.tz_offset_quarter_hours = 23;  // Nepal, UTC+5:45
  EXPECT_EQ(LocalMs(r), (5 * 60 + 45) * 60 * 1000);
}

TEST(TimeZoneTest, ToLocalShifts) {
  LogRecord r;
  r.tz_offset_quarter_hours = 8;  // UTC+2
  EXPECT_EQ(LocalMs(r), 2 * 3600 * 1000);
}

TEST(RecordTest, EqualityIsFieldwise) {
  LogRecord a, b;
  EXPECT_EQ(a, b);
  b.url_hash = 1;
  EXPECT_NE(a, b);
}

TEST(EnumStringTest, ContentClassRoundTrip) {
  for (int i = 0; i < kNumContentClasses; ++i) {
    const auto c = static_cast<ContentClass>(i);
    EXPECT_EQ(ContentClassFromString(ToString(c)), c);
  }
  EXPECT_THROW(ContentClassFromString("bogus"), std::invalid_argument);
}

TEST(EnumStringTest, FileTypeRoundTrip) {
  for (int i = 0; i < kNumFileTypes; ++i) {
    const auto t = static_cast<FileType>(i);
    EXPECT_EQ(FileTypeFromString(ToString(t)), t);
  }
  EXPECT_THROW(FileTypeFromString("exe"), std::invalid_argument);
}

TEST(EnumStringTest, CacheStatusRoundTrip) {
  EXPECT_EQ(CacheStatusFromString("HIT"), CacheStatus::kHit);
  EXPECT_EQ(CacheStatusFromString("MISS"), CacheStatus::kMiss);
  EXPECT_THROW(CacheStatusFromString("hit"), std::invalid_argument);
}

}  // namespace
}  // namespace atlas::trace
