#include "util/time.h"

#include <cstdio>

namespace atlas::util {

const char* const kDayNames[7] = {"Sat", "Sun", "Mon", "Tue",
                                  "Wed", "Thu", "Fri"};

namespace {

// Wraps a (possibly negative) local timestamp into [0, week).
std::int64_t WrapToWeek(std::int64_t local_ms) {
  std::int64_t m = local_ms % kMillisPerWeek;
  if (m < 0) m += kMillisPerWeek;
  return m;
}

}  // namespace

int HourOfDay(std::int64_t local_ms) {
  return static_cast<int>((WrapToWeek(local_ms) / kMillisPerHour) % 24);
}

std::string FormatTimestamp(std::int64_t ms) {
  const std::int64_t wrapped = WrapToWeek(ms);
  const int day = static_cast<int>(wrapped / kMillisPerDay);
  const std::int64_t in_day = wrapped % kMillisPerDay;
  const int h = static_cast<int>(in_day / kMillisPerHour);
  const int m = static_cast<int>((in_day / kMillisPerMinute) % 60);
  const int s = static_cast<int>((in_day / kMillisPerSecond) % 60);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s %02d:%02d:%02d", kDayNames[day], h, m, s);
  return buf;
}

std::string FormatDuration(std::int64_t ms) {
  char buf[48];
  if (ms < kMillisPerSecond) {
    std::snprintf(buf, sizeof(buf), "%lld ms", static_cast<long long>(ms));
  } else if (ms < kMillisPerMinute) {
    std::snprintf(buf, sizeof(buf), "%.1f s",
                  static_cast<double>(ms) / kMillisPerSecond);
  } else if (ms < kMillisPerHour) {
    std::snprintf(buf, sizeof(buf), "%.1f min",
                  static_cast<double>(ms) / kMillisPerMinute);
  } else if (ms < kMillisPerDay) {
    std::snprintf(buf, sizeof(buf), "%.1f h",
                  static_cast<double>(ms) / kMillisPerHour);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f d",
                  static_cast<double>(ms) / kMillisPerDay);
  }
  return buf;
}

}  // namespace atlas::util
