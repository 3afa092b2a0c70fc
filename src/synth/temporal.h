// Temporal demand shaping.
//
// Two layers, matching the paper's findings:
//   1. Site-level: the hour-of-day demand curve in *local* time (Fig. 3) —
//      where a session is likely to start.
//   2. Object-level: each object's request-intensity multiplier over the
//      week (Figs. 8-10) — diurnal objects stay warm all week, long-lived
//      objects decay over days, short-lived ones die within hours,
//      flash-crowd objects spike once.
#pragma once

#include <array>
#include <cstdint>

#include "synth/site_profile.h"
#include "util/rng.h"
#include "util/time.h"

namespace atlas::synth {

// Site-level relative demand at a local hour-of-day in [0, 24). Positive;
// mean over the day is ~1.
double SiteHourlyDemand(const SiteProfile& profile, double local_hour);

// A discrete distribution over the 168 hours of the week built from the
// site curve (weekday/weekend weighting handled here as well). Used to draw
// session start hours in the user's local time.
class WeekHourDistribution {
 public:
  explicit WeekHourDistribution(const SiteProfile& profile);

  // Draws a local timestamp (ms since local Saturday 00:00): an hour from
  // the weekly distribution plus a uniform offset inside the hour.
  std::int64_t SampleLocalMs(util::Rng& rng) const;

 private:
  std::array<double, util::kHoursPerWeek> weights_{};
  std::array<double, util::kHoursPerWeek> cumulative_{};
};

// Per-object temporal pattern parameters, drawn once at catalog build.
struct PatternParams {
  PatternType type = PatternType::kDiurnal;
  // Diurnal: local peak hour and modulation depth.
  double peak_hour = 22.0;
  double amplitude = 0.5;
  // Long-/short-lived: exponential decay time constant (hours).
  double decay_tau_hours = 36.0;
  // Flash-crowd: spike start (ms since injection) and spike width (hours).
  std::int64_t spike_offset_ms = 0;
  double spike_width_hours = 6.0;
  // Outliers: a handful of random bumps.
  std::array<double, 3> bump_pos_frac{};   // position in the week [0,1]
  std::array<double, 3> bump_width_h{};    // width in hours

  static PatternParams Sample(PatternType type, const SiteProfile& profile,
                              util::Rng& rng);
};

// The object's demand multiplier at absolute trace time `utc_ms`, given its
// injection time. Returns 0 before injection; otherwise a non-negative
// intensity (relative within the object's own lifetime).
//
// The multiplier is evaluated in *site-local* terms: object diurnality is
// expressed against the aggregated local-time behaviour of the site's users,
// so a caller-supplied representative timezone offset shifts the phase.
double ObjectDemandMultiplier(const PatternParams& params,
                              std::int64_t injected_at_ms,
                              std::int64_t utc_ms,
                              double representative_tz_hours);

// Upper bound of ObjectDemandMultiplier over all times for rejection
// sampling (exact for the implemented shapes).
double ObjectDemandCeiling(const PatternParams& params);

}  // namespace atlas::synth
