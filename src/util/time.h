// Simulation time.
//
// ATLAS models one week of wall-clock time, like the paper's trace. All
// timestamps are milliseconds since the (simulated) trace start, which is
// taken to be Saturday 00:00:00 UTC — the paper's medoid plots run
// Sat..Fri. The paper converts timestamps to the *user's local timezone*
// before computing hourly volumes (Fig. 3); each record carries its user's
// UTC offset (trace::LogRecord::tz_offset_quarter_hours) for that.
#pragma once

#include <cstdint>
#include <string>

namespace atlas::util {

inline constexpr std::int64_t kMillisPerSecond = 1000;
inline constexpr std::int64_t kMillisPerMinute = 60 * kMillisPerSecond;
inline constexpr std::int64_t kMillisPerHour = 60 * kMillisPerMinute;
inline constexpr std::int64_t kMillisPerDay = 24 * kMillisPerHour;
inline constexpr std::int64_t kMillisPerWeek = 7 * kMillisPerDay;
inline constexpr int kHoursPerWeek = 7 * 24;

// Day index 0 == Saturday (trace starts Saturday, per the paper's figures).
extern const char* const kDayNames[7];

// Hour-of-day in [0, 24) for a local timestamp. Timestamps before trace
// start (possible after tz shifts) are wrapped.
int HourOfDay(std::int64_t local_ms);

// Formats a trace timestamp as "Day HH:MM:SS" for reports.
std::string FormatTimestamp(std::int64_t ms);

// Formats a duration in a human-friendly unit ("850 ms", "3.2 min", ...).
std::string FormatDuration(std::int64_t ms);

}  // namespace atlas::util
