// Content injection & aging (Fig. 7).
//
// "we plot the fraction of adult objects requested at different ages ... a
// declining fraction of objects are requested as their age increases. In
// particular, about 20% of objects are not requested after 3 days ... Only
// about 10% of objects are requested throughout the trace duration."
//
// An object's age-d bucket (d = 1..7) covers its d-th day of life, counted
// from its first appearance in the trace (the observable proxy for its
// injection time). Only objects whose day d is observable (first_seen +
// d days <= trace end) enter the denominator for day d.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "trace/block.h"
#include "trace/trace_buffer.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

inline constexpr int kMaxAgeDays = 7;

struct AgingResult {
  std::string site;
  // fraction_requested[d-1]: of objects with at least d observable days,
  // the fraction requested at least once during their day d.
  std::array<double, kMaxAgeDays> fraction_requested{};
  // The paper's raw variant: requested-at-day-d over ALL objects, with no
  // observability correction — late-injected objects mechanically depress
  // the tail, which is part of why Fig. 7 falls so steeply.
  std::array<double, kMaxAgeDays> fraction_requested_uncorrected{};
  std::array<std::uint64_t, kMaxAgeDays> observable_objects{};

  // Fraction of objects (with a full week observable) requested in *every*
  // observable day — the "requested throughout the trace" number.
  double requested_all_days = 0.0;
  // Fraction of objects with >= 4 observable days that receive no request
  // after their day 3 — the "not requested after 3 days" number.
  double silent_after_3_days = 0.0;
};

// Single-pass accumulator behind ComputeAging. Requires records in
// non-decreasing timestamp order (throws std::invalid_argument otherwise):
// with sorted input an object's first occurrence IS its earliest, so one
// pass suffices where the random-access path needed two. The result is
// input-order independent, so ComputeAging feeds a sorted permutation when
// handed an unsorted buffer and matches the historical output exactly.
class AgingAccumulator {
 public:
  explicit AgingAccumulator(std::size_t size_hint = 0);
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in that order;
  // the sorted-input check runs row by row.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  AgingResult Finalize(const std::string& site_name);

 private:
  struct ObjectLife {
    std::int64_t first_seen = 0;
    // Bitmask of life-days (day 1 = bit 0) with at least one request.
    std::uint32_t active_days = 0;
  };
  util::FlatHashMap<std::uint64_t, ObjectLife> lives_;
  std::int64_t last_ts_ = 0;
  std::int64_t end_ms_ = 0;
  bool any_ = false;
};

AgingResult ComputeAging(const trace::TraceBuffer& trace,
                         const std::string& site_name);

}  // namespace atlas::analysis
