#include "analysis/aging.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/feed.h"
#include "util/time.h"

namespace atlas::analysis {

AgingAccumulator::AgingAccumulator(std::size_t size_hint) {
  lives_.reserve(size_hint / 4 + 1);
}

void AgingAccumulator::AddBatch(const trace::RecordBlock& b,
                                const std::uint32_t* rows, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const std::int64_t ts = b.timestamp_ms[i];
    if (any_ && ts < last_ts_) {
      throw std::invalid_argument(
          "AgingAccumulator: input not sorted by time");
    }
    any_ = true;
    last_ts_ = ts;
    end_ms_ = ts;  // sorted input: the latest so far
    auto [life, inserted] = lives_.TryEmplace(b.url_hash[i]);
    if (inserted) life->first_seen = ts;
    const std::int64_t age_ms = ts - life->first_seen;
    const auto day = static_cast<int>(age_ms / util::kMillisPerDay);  // 0-based
    if (day >= 0 && day < kMaxAgeDays) {
      life->active_days |= (1u << day);
    }
  }
}

AgingResult AgingAccumulator::Finalize(const std::string& site_name) {
  AgingResult result;
  result.site = site_name;
  if (lives_.empty()) return result;

  const std::int64_t trace_end = end_ms_;
  std::array<std::uint64_t, kMaxAgeDays> requested{};
  std::uint64_t full_week_objects = 0;
  std::uint64_t full_week_all_days = 0;
  std::uint64_t observable_4plus = 0;
  std::uint64_t silent_after_3 = 0;

  // Per-day integer tallies commute, so table layout order is fine here.
  lives_.ForEach([&](std::uint64_t, const ObjectLife& life) {
    // Number of fully observable life-days for this object.
    const std::int64_t window = trace_end - life.first_seen;
    const auto observable = static_cast<int>(
        std::min<std::int64_t>(window / util::kMillisPerDay + 1, kMaxAgeDays));
    for (int d = 0; d < observable; ++d) {
      ++result.observable_objects[static_cast<std::size_t>(d)];
      if (life.active_days & (1u << d)) {
        ++requested[static_cast<std::size_t>(d)];
      }
    }
    if (observable >= kMaxAgeDays) {
      ++full_week_objects;
      bool all = true;
      for (int d = 0; d < kMaxAgeDays; ++d) {
        if ((life.active_days & (1u << d)) == 0) {
          all = false;
          break;
        }
      }
      if (all) ++full_week_all_days;
    }
    if (observable >= 4) {
      ++observable_4plus;
      // "Not requested after 3 days": no active day beyond day 3 (bits 3+).
      if ((life.active_days >> 3) == 0) ++silent_after_3;
    }
  });

  for (int d = 0; d < kMaxAgeDays; ++d) {
    const auto i = static_cast<std::size_t>(d);
    result.fraction_requested[i] =
        result.observable_objects[i] == 0
            ? 0.0
            : static_cast<double>(requested[i]) /
                  static_cast<double>(result.observable_objects[i]);
    result.fraction_requested_uncorrected[i] =
        lives_.empty() ? 0.0
                       : static_cast<double>(requested[i]) /
                             static_cast<double>(lives_.size());
  }
  result.requested_all_days =
      full_week_objects == 0 ? 0.0
                             : static_cast<double>(full_week_all_days) /
                                   static_cast<double>(full_week_objects);
  result.silent_after_3_days =
      observable_4plus == 0 ? 0.0
                            : static_cast<double>(silent_after_3) /
                                  static_cast<double>(observable_4plus);
  return result;
}

AgingResult ComputeAging(const trace::TraceBuffer& trace,
                         const std::string& site_name) {
  AgingAccumulator acc(trace.size());
  // The result is order-independent, so an unsorted buffer is fed sorted.
  FeedTraceByTime(trace, acc);
  return acc.Finalize(site_name);
}

}  // namespace atlas::analysis
