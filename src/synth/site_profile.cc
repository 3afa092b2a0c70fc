#include "synth/site_profile.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace atlas::synth {
namespace {

// log of a lognormal's median gives mu directly: median = exp(mu).
double MuFromMedian(double median) { return std::log(median); }

// Scales a population count, clamping up to `floor_value` so tiny scales
// never truncate a population to zero, and failing loudly when the scaled
// count would overflow the uint32 index range the event arrays use.
std::uint64_t ScaleCount64(std::uint64_t n, double scale,
                           std::uint64_t floor_value, const char* what,
                           std::uint64_t cap) {
  const long long rounded = std::llround(static_cast<double>(n) * scale);
  const auto scaled = static_cast<std::uint64_t>(std::max(0LL, rounded));
  if (scaled > cap) {
    throw std::overflow_error(std::string("SiteProfile: scaled ") + what +
                              " " + std::to_string(scaled) + " exceeds cap " +
                              std::to_string(cap));
  }
  return std::max(scaled, floor_value);
}

std::size_t ScaleCount(std::size_t n, double scale, std::size_t floor_value,
                       const char* what) {
  // Object/user indices are uint32 fields in RequestEvent; fail the
  // factory, not the first narrowing cast five layers down.
  return static_cast<std::size_t>(
      ScaleCount64(n, scale, floor_value, what,
                   std::numeric_limits<std::uint32_t>::max()));
}

void ApplyScale(SiteProfile& p, double scale) {
  if (!std::isfinite(scale) || scale <= 0.0 || scale > kMaxProfileScale) {
    throw std::invalid_argument(
        "SiteProfile: scale must be a finite value in (0, " +
        std::to_string(kMaxProfileScale) + "]");
  }
  p.num_objects = ScaleCount(p.num_objects, scale, 50, "num_objects");
  p.num_users = ScaleCount(p.num_users, scale, 20, "num_users");
  p.total_requests =
      ScaleCount64(p.total_requests, scale, 500, "total_requests",
                   std::numeric_limits<std::uint64_t>::max() / 2);
}

}  // namespace

const char* ToString(PatternType p) {
  switch (p) {
    case PatternType::kDiurnal:
      return "diurnal";
    case PatternType::kLongLived:
      return "long-lived";
    case PatternType::kShortLived:
      return "short-lived";
    case PatternType::kFlashCrowd:
      return "flash-crowd";
    case PatternType::kOutlier:
      return "outlier";
  }
  return "?";
}

const char* ToString(DemandEventKind k) {
  switch (k) {
    case DemandEventKind::kFlashCrowd:
      return "flash-crowd";
    case DemandEventKind::kTakedown:
      return "takedown";
  }
  return "?";
}

std::uint64_t SizeModel::Sample(util::Rng& rng) const {
  double v;
  if (rng.NextBool(bimodal_weight)) {
    v = rng.NextLogNormal(mu1, sigma1);
  } else {
    v = rng.NextLogNormal(mu2, sigma2);
  }
  v = std::clamp(v, lo_bytes, hi_bytes);
  return static_cast<std::uint64_t>(v);
}

SizeModel SizeModel::LogNormal(double median_bytes, double sigma, double lo,
                               double hi) {
  SizeModel m;
  m.mu1 = MuFromMedian(median_bytes);
  m.sigma1 = sigma;
  m.bimodal_weight = 1.0;
  m.lo_bytes = lo;
  m.hi_bytes = hi;
  return m;
}

SizeModel SizeModel::Bimodal(double median1, double sigma1, double median2,
                             double sigma2, double weight_first, double lo,
                             double hi) {
  SizeModel m;
  m.mu1 = MuFromMedian(median1);
  m.sigma1 = sigma1;
  m.mu2 = MuFromMedian(median2);
  m.sigma2 = sigma2;
  m.bimodal_weight = weight_first;
  m.lo_bytes = lo;
  m.hi_bytes = hi;
  return m;
}

PatternType PatternMix::Sample(util::Rng& rng) const {
  std::vector<double> w(fractions.begin(), fractions.end());
  return static_cast<PatternType>(rng.NextWeighted(w));
}

void PatternMix::Validate() const {
  double total = 0.0;
  for (double f : fractions) {
    if (f < 0.0) throw std::invalid_argument("PatternMix: negative fraction");
    total += f;
  }
  if (std::abs(total - 1.0) > 1e-6) {
    throw std::invalid_argument("PatternMix: fractions must sum to 1");
  }
}

void SiteProfile::Validate() const {
  if (name.empty()) throw std::invalid_argument("SiteProfile: empty name");
  if (num_objects == 0 || num_users == 0 || total_requests == 0) {
    throw std::invalid_argument("SiteProfile: zero-sized population");
  }
  // Hand-built profiles get the same index-range guarantee the scaled
  // factories enforce: every object/user index fits the events' uint32
  // fields, so the CheckedIndexU32 conversions downstream cannot fire.
  constexpr std::uint64_t kMaxPopulation =
      std::numeric_limits<std::uint32_t>::max();
  if (num_objects > kMaxPopulation || num_users > kMaxPopulation) {
    throw std::overflow_error(
        "SiteProfile: population exceeds the uint32 index range");
  }
  if (synth_table_budget_bytes == 0) {
    throw std::invalid_argument("SiteProfile: synth_table_budget_bytes == 0");
  }
  double mix = 0.0;
  for (double f : object_class_mix) {
    if (f < 0.0) throw std::invalid_argument("SiteProfile: negative class mix");
    mix += f;
  }
  if (std::abs(mix - 1.0) > 1e-6) {
    throw std::invalid_argument("SiteProfile: class mix must sum to 1");
  }
  double dev = 0.0;
  for (double f : device_mix) {
    if (f < 0.0) throw std::invalid_argument("SiteProfile: negative device mix");
    dev += f;
  }
  if (std::abs(dev - 1.0) > 1e-6) {
    throw std::invalid_argument("SiteProfile: device mix must sum to 1");
  }
  double cont = 0.0;
  for (double f : continent_mix) cont += f;
  if (std::abs(cont - 1.0) > 1e-6) {
    throw std::invalid_argument("SiteProfile: continent mix must sum to 1");
  }
  video_patterns.Validate();
  image_patterns.Validate();
  other_patterns.Validate();
  if (preexisting_fraction < 0.0 || preexisting_fraction > 1.0) {
    throw std::invalid_argument("SiteProfile: preexisting_fraction out of range");
  }
  if (diurnal_amplitude < 0.0 || diurnal_amplitude >= 1.0) {
    throw std::invalid_argument("SiteProfile: diurnal_amplitude out of [0,1)");
  }
  if (mean_requests_per_session < 1.0) {
    throw std::invalid_argument("SiteProfile: mean_requests_per_session < 1");
  }
  if (zipf_s < 0.0) throw std::invalid_argument("SiteProfile: zipf_s < 0");
  if (watch_fraction_mean <= 0.0 || watch_fraction_mean > 1.0) {
    throw std::invalid_argument("SiteProfile: watch_fraction_mean out of range");
  }
  for (const DemandEvent& e : demand_events) {
    if (e.end_ms <= e.start_ms || e.start_ms < 0) {
      throw std::invalid_argument(
          "SiteProfile: demand event window must satisfy 0 <= start < end");
    }
    if (e.object_index >= num_objects) {
      throw std::invalid_argument(
          "SiteProfile: demand event object_index " +
          std::to_string(e.object_index) + " outside catalog of " +
          std::to_string(num_objects));
    }
    if (e.kind == DemandEventKind::kFlashCrowd &&
        (!(e.share > 0.0) || e.share > 1.0)) {
      throw std::invalid_argument(
          "SiteProfile: flash-crowd share must be in (0, 1]");
    }
    if (e.kind == DemandEventKind::kTakedown && num_objects < 2) {
      throw std::invalid_argument(
          "SiteProfile: takedown needs a catalog of >= 2 objects");
    }
  }
  // Same-kind windows must not overlap: "the flash crowd's share" or "the
  // takedown's target" would be ambiguous where two windows intersect.
  for (std::size_t i = 0; i < demand_events.size(); ++i) {
    for (std::size_t j = i + 1; j < demand_events.size(); ++j) {
      const DemandEvent& a = demand_events[i];
      const DemandEvent& b = demand_events[j];
      if (a.kind == b.kind && a.start_ms < b.end_ms && b.start_ms < a.end_ms) {
        throw std::invalid_argument(
            "SiteProfile: overlapping " + std::string(ToString(a.kind)) +
            " event windows");
      }
    }
  }
}

// --- Calibrated profiles ------------------------------------------------------
//
// Counts come straight from the paper: Fig. 1 gives catalog sizes and object
// class mixes; Fig. 2(a) gives request counts; Fig. 3 gives the temporal
// phase; Fig. 4 the device mixes; Fig. 5 the size ranges; Fig. 8 the
// popularity-trend mixes (measured for V-2 video and P-2 image, extrapolated
// for the rest); §IV-C and Fig. 14 the engagement/addiction parameters.

SiteProfile SiteProfile::V1(double scale) {
  SiteProfile p;
  p.name = "V-1";
  p.kind = trace::SiteKind::kAdultVideo;
  // Fig. 1: 6.6K objects, 98% video.
  p.num_objects = 6600;
  p.object_class_mix = {0.98, 0.01, 0.01};
  // Fig. 2(a): 3.1M video requests, 99% of traffic.
  p.num_users = 200000;
  p.total_requests = 3100000;
  p.zipf_s = 0.95;
  // Fig. 5: most V-1 videos are > 1 MB; tens of MB typical.
  p.video_size = SizeModel::LogNormal(15e6, 1.0, 100e3, 500e6);
  p.image_size = SizeModel::Bimodal(8e3, 0.5, 250e3, 0.7, 0.6, 500, 1.5e6);
  p.other_size = SizeModel::LogNormal(20e3, 1.0, 200, 5e6);
  // Fig. 8 measured only V-2/P-2; V-1 gets a video-site mix with a strong
  // diurnal front-page component.
  p.video_patterns.fractions = {0.40, 0.24, 0.18, 0.03, 0.15};
  p.image_patterns.fractions = {0.55, 0.25, 0.10, 0.05, 0.05};
  p.other_patterns.fractions = {0.70, 0.15, 0.10, 0.00, 0.05};
  // Fig. 3: V-1 peaks late-night / early-morning — near-opposite of the
  // classic 7-11pm diurnal peak.
  p.peak_local_hour = 2.0;
  p.diurnal_amplitude = 0.35;
  // Fig. 4: predominantly desktop.
  p.device_mix = {0.85, 0.07, 0.04, 0.04};
  p.continent_mix = {0.45, 0.30, 0.15, 0.10};
  // Figs. 11-12: video sites have short IATs and ~minute sessions.
  p.mean_requests_per_session = 5.0;
  p.iat_median_s = 18.0;
  p.iat_sigma = 1.1;
  // Figs. 13-14: >=10% of video objects get >10 requests per user.
  p.repeat_request_prob = 0.35;
  p.favorite_adopt_prob = 0.40;
  p.incognito_rate = 0.75;
  ApplyScale(p, scale);
  return p;
}

SiteProfile SiteProfile::V2(double scale) {
  SiteProfile p;
  p.name = "V-2";
  p.kind = trace::SiteKind::kAdultVideo;
  // Fig. 1: 55.6K objects; 84% image (GIF hover summaries), 15% video.
  p.num_objects = 55600;
  p.object_class_mix = {0.15, 0.84, 0.01};
  // Fig. 2(a): 359K video + 657K image requests.
  p.num_users = 150000;
  p.total_requests = 1060000;
  p.zipf_s = 0.9;
  // Fig. 2(a) counts HTTP transactions, and every video *view* expands into
  // ~5-6 chunked transactions; to land at 359K video vs. 657K image records
  // the per-object logical view demand for video must sit below image
  // (0.55x), not above it.
  p.class_demand_bias = {0.55, 1.0, 0.3};
  p.video_size = SizeModel::LogNormal(8e6, 1.0, 100e3, 200e6);
  // V-2's GIF video summaries are large for "images".
  p.image_size = SizeModel::Bimodal(12e3, 0.5, 700e3, 0.7, 0.55, 500, 2e6);
  p.other_size = SizeModel::LogNormal(20e3, 1.0, 200, 5e6);
  // Fig. 8(a) measured for V-2 video: 22% diurnal-A + 11% diurnal-B, 20%
  // long-lived, 14% short-lived, 33% outliers.
  p.video_patterns.fractions = {0.33, 0.20, 0.14, 0.00, 0.33};
  p.image_patterns.fractions = {0.50, 0.25, 0.15, 0.05, 0.05};
  p.other_patterns.fractions = {0.70, 0.15, 0.10, 0.00, 0.05};
  p.peak_local_hour = 23.5;
  p.diurnal_amplitude = 0.18;  // "less pronounced variations than V-1"
  // Fig. 4: "more than 95% users accessing content from desktop".
  p.device_mix = {0.955, 0.02, 0.01, 0.015};
  p.continent_mix = {0.40, 0.35, 0.15, 0.10};
  p.mean_requests_per_session = 4.0;
  p.iat_median_s = 20.0;
  p.iat_sigma = 1.1;
  p.repeat_request_prob = 0.30;
  p.favorite_adopt_prob = 0.35;
  p.incognito_rate = 0.75;
  ApplyScale(p, scale);
  return p;
}

SiteProfile SiteProfile::P1(double scale) {
  SiteProfile p;
  p.name = "P-1";
  p.kind = trace::SiteKind::kAdultImage;
  // Fig. 1: 16.3K objects, 99% image.
  p.num_objects = 16300;
  p.object_class_mix = {0.005, 0.99, 0.005};
  // Fig. 2(a): 719K image requests.
  p.num_users = 140000;
  p.total_requests = 730000;
  p.zipf_s = 0.85;
  // Image-gallery browsing is spread thin across many casual visitors, so
  // the activity tail is lighter than on the video sites — this is what
  // pushes the median inter-request gap past an hour (Fig. 11).
  p.user_activity_alpha = 2.2;
  p.video_size = SizeModel::LogNormal(10e6, 0.9, 100e3, 200e6);
  p.image_size = SizeModel::Bimodal(10e3, 0.5, 350e3, 0.7, 0.6, 500, 1.5e6);
  p.other_size = SizeModel::LogNormal(15e3, 1.0, 200, 5e6);
  p.video_patterns.fractions = {0.35, 0.30, 0.20, 0.05, 0.10};
  p.image_patterns.fractions = {0.55, 0.27, 0.10, 0.05, 0.03};
  p.other_patterns.fractions = {0.70, 0.15, 0.10, 0.00, 0.05};
  p.peak_local_hour = 0.5;
  p.diurnal_amplitude = 0.22;
  p.device_mix = {0.78, 0.10, 0.05, 0.07};
  p.continent_mix = {0.40, 0.30, 0.20, 0.10};
  // Fig. 11: image-heavy sites have long IATs (median > 1h): sessions are
  // shallow, so most inter-request gaps are inter-session gaps.
  p.mean_requests_per_session = 1.7;
  p.iat_median_s = 35.0;
  p.iat_sigma = 1.0;
  // Fig. 14: <1% of image objects exceed 10 requests per user.
  p.repeat_request_prob = 0.08;
  p.favorite_adopt_prob = 0.12;
  p.incognito_rate = 0.70;
  ApplyScale(p, scale);
  return p;
}

SiteProfile SiteProfile::P2(double scale) {
  SiteProfile p;
  p.name = "P-2";
  p.kind = trace::SiteKind::kAdultImage;
  // Fig. 1: 29.6K objects, 99% image.
  p.num_objects = 29600;
  p.object_class_mix = {0.005, 0.99, 0.005};
  // Fig. 2(a): 175K image requests.
  p.num_users = 40000;
  p.total_requests = 180000;
  p.zipf_s = 0.85;
  p.user_activity_alpha = 2.2;
  // P-2's videos are huge (Fig. 5a) and chunk into many HTTP records, so
  // their logical view demand must stay small for the record mix to remain
  // ~97% image (Fig. 2a).
  p.class_demand_bias = {0.35, 1.0, 0.3};
  // Fig. 5(a): "P-2 has the largest video object sizes".
  p.video_size = SizeModel::LogNormal(40e6, 0.8, 1e6, 800e6);
  p.image_size = SizeModel::Bimodal(9e3, 0.5, 300e3, 0.7, 0.55, 500, 1.5e6);
  p.other_size = SizeModel::LogNormal(15e3, 1.0, 200, 5e6);
  p.video_patterns.fractions = {0.30, 0.35, 0.20, 0.05, 0.10};
  // Fig. 8(b) measured for P-2 image: 61% diurnal, 25% long-lived, 14%
  // flash-crowd.
  p.image_patterns.fractions = {0.61, 0.25, 0.00, 0.14, 0.00};
  p.other_patterns.fractions = {0.70, 0.15, 0.10, 0.00, 0.05};
  p.peak_local_hour = 23.0;
  p.diurnal_amplitude = 0.20;
  p.device_mix = {0.80, 0.09, 0.05, 0.06};
  p.continent_mix = {0.35, 0.35, 0.20, 0.10};
  p.mean_requests_per_session = 1.6;
  p.iat_median_s = 40.0;
  p.iat_sigma = 1.0;
  p.repeat_request_prob = 0.08;
  p.favorite_adopt_prob = 0.12;
  p.incognito_rate = 0.70;
  ApplyScale(p, scale);
  return p;
}

SiteProfile SiteProfile::S1(double scale) {
  SiteProfile p;
  p.name = "S-1";
  p.kind = trace::SiteKind::kAdultSocial;
  // Fig. 1: 22.9K objects, 99% image.
  p.num_objects = 22900;
  p.object_class_mix = {0.004, 0.99, 0.006};
  // Fig. 2(a): 231K image requests.
  p.num_users = 60000;
  p.total_requests = 240000;
  p.zipf_s = 0.8;
  p.user_activity_alpha = 2.0;
  p.video_size = SizeModel::LogNormal(6e6, 0.9, 100e3, 100e6);
  p.image_size = SizeModel::Bimodal(7e3, 0.5, 200e3, 0.7, 0.65, 500, 1.2e6);
  p.other_size = SizeModel::LogNormal(10e3, 1.0, 200, 5e6);
  p.video_patterns.fractions = {0.35, 0.30, 0.20, 0.05, 0.10};
  // Social feeds churn: more short-lived content than the galleries.
  p.image_patterns.fractions = {0.45, 0.30, 0.15, 0.05, 0.05};
  p.other_patterns.fractions = {0.70, 0.15, 0.10, 0.00, 0.05};
  p.peak_local_hour = 22.0;
  p.diurnal_amplitude = 0.20;
  // Fig. 4: "more than one-third of users access S-1 from smartphone and
  // miscellaneous device categories".
  p.device_mix = {0.63, 0.17, 0.09, 0.11};
  p.continent_mix = {0.40, 0.25, 0.25, 0.10};
  p.mean_requests_per_session = 2.0;
  p.iat_median_s = 30.0;
  p.iat_sigma = 1.0;
  p.repeat_request_prob = 0.12;
  p.favorite_adopt_prob = 0.18;
  p.incognito_rate = 0.60;  // profiles require login; less private browsing
  ApplyScale(p, scale);
  return p;
}

SiteProfile SiteProfile::NonAdult(double scale) {
  SiteProfile p;
  p.name = "N-1";
  p.kind = trace::SiteKind::kNonAdult;
  p.num_objects = 20000;
  p.object_class_mix = {0.10, 0.60, 0.30};
  p.num_users = 80000;
  p.total_requests = 600000;
  p.zipf_s = 1.0;  // viral word-of-mouth sharing concentrates demand
  p.video_size = SizeModel::LogNormal(12e6, 1.0, 100e3, 300e6);
  p.image_size = SizeModel::Bimodal(10e3, 0.5, 250e3, 0.7, 0.6, 500, 1.5e6);
  p.other_size = SizeModel::LogNormal(25e3, 1.0, 200, 5e6);
  p.video_patterns.fractions = {0.50, 0.25, 0.10, 0.10, 0.05};
  p.image_patterns.fractions = {0.55, 0.25, 0.10, 0.05, 0.05};
  p.other_patterns.fractions = {0.70, 0.15, 0.10, 0.00, 0.05};
  // Classic web diurnal pattern: 7-11pm peak (the contrast for Fig. 3).
  p.peak_local_hour = 21.0;
  p.diurnal_amplitude = 0.45;
  p.device_mix = {0.55, 0.22, 0.13, 0.10};
  p.continent_mix = {0.40, 0.30, 0.20, 0.10};
  p.mean_requests_per_session = 8.0;  // longer engagement than adult sites
  p.iat_median_s = 25.0;
  p.iat_sigma = 1.1;
  p.repeat_request_prob = 0.10;
  p.favorite_adopt_prob = 0.10;
  p.incognito_rate = 0.10;  // normal browsing: browser caches work (§V)
  ApplyScale(p, scale);
  return p;
}

SiteProfile SiteProfile::LiveStream(double scale) {
  SiteProfile p;
  p.name = "L-1";
  p.kind = trace::SiteKind::kAdultVideo;
  // A cam/live portal: few concurrent "streams" relative to a VoD catalog,
  // nearly all video, and almost nothing pre-recorded survives the day.
  p.num_objects = 900;
  p.object_class_mix = {0.95, 0.04, 0.01};
  p.num_users = 90000;
  p.total_requests = 800000;
  // Demand concentrates hard on the top streams.
  p.zipf_s = 1.1;
  // Streams are delivered as long chunked sessions; sizes model the bytes
  // a viewer pulls, not a file on disk.
  p.video_size = SizeModel::LogNormal(60e6, 0.7, 2e6, 1e9);
  p.image_size = SizeModel::Bimodal(10e3, 0.5, 250e3, 0.7, 0.6, 500, 1.5e6);
  p.other_size = SizeModel::LogNormal(15e3, 1.0, 200, 5e6);
  // A stream is alive while it is on the air: short-lived dominates, with
  // a flash-crowd slice for headline shows.
  p.video_patterns.fractions = {0.10, 0.15, 0.55, 0.15, 0.05};
  p.image_patterns.fractions = {0.30, 0.20, 0.40, 0.05, 0.05};
  p.other_patterns.fractions = {0.70, 0.15, 0.10, 0.00, 0.05};
  // Live content churns continuously; almost nothing predates the trace.
  p.preexisting_fraction = 0.15;
  // Shows cluster in the late evening and the site goes quiet off-air —
  // the deepest diurnal swing of any profile.
  p.peak_local_hour = 23.0;
  p.diurnal_amplitude = 0.7;
  p.device_mix = {0.70, 0.14, 0.08, 0.08};
  p.continent_mix = {0.40, 0.35, 0.15, 0.10};
  // Viewers settle into a stream: few distinct requests, long gaps while
  // they watch, near-complete watch fractions.
  p.mean_requests_per_session = 3.0;
  p.iat_median_s = 90.0;
  p.iat_sigma = 0.9;
  p.repeat_request_prob = 0.45;  // regulars return to the same performers
  p.favorite_adopt_prob = 0.50;
  p.max_favorites = 4;
  p.watch_fraction_mean = 0.85;
  p.incognito_rate = 0.80;
  ApplyScale(p, scale);
  return p;
}

std::vector<SiteProfile> SiteProfile::PaperAdultSites(double scale) {
  return {V1(scale), V2(scale), P1(scale), P2(scale), S1(scale)};
}

}  // namespace atlas::synth
