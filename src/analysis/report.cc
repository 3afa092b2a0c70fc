#include "analysis/report.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <set>

#include "cluster/medoid.h"
#include "util/str.h"
#include "util/time.h"

namespace atlas::analysis {
namespace {

using util::FormatBytes;
using util::FormatCount;
using util::FormatPercent;
using util::PadLeft;
using util::PadRight;

constexpr std::size_t kSiteCol = 7;
constexpr std::size_t kNumCol = 12;

void Rule(std::ostream& out, std::size_t width) {
  out << std::string(width, '-') << '\n';
}

}  // namespace

void RenderDatasetSummaries(
    const std::vector<const DatasetSummary*>& summaries, std::ostream& out) {
  out << PadRight("site", kSiteCol) << PadLeft("records", kNumCol)
      << PadLeft("users", kNumCol) << PadLeft("objects", kNumCol)
      << PadLeft("bytes", kNumCol) << PadLeft("span", kNumCol) << '\n';
  Rule(out, kSiteCol + 5 * kNumCol);
  for (const auto* s : summaries) {
    out << PadRight(s->label, kSiteCol)
        << PadLeft(FormatCount(static_cast<double>(s->records)), kNumCol)
        << PadLeft(FormatCount(static_cast<double>(s->users)), kNumCol)
        << PadLeft(FormatCount(static_cast<double>(s->objects)), kNumCol)
        << PadLeft(FormatBytes(static_cast<double>(s->bytes)), kNumCol)
        << PadLeft(util::FormatDuration(s->end_ms - s->start_ms), kNumCol)
        << '\n';
  }
}

void RenderContentComposition(
    const std::vector<const CompositionResult*>& sites, std::ostream& out) {
  out << PadRight("site", kSiteCol) << PadLeft("objects", kNumCol)
      << PadLeft("video", kNumCol) << PadLeft("image", kNumCol)
      << PadLeft("other", kNumCol) << '\n';
  Rule(out, kSiteCol + 4 * kNumCol);
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol)
        << PadLeft(FormatCount(static_cast<double>(s->TotalObjects())),
                   kNumCol);
    for (int c = 0; c < trace::kNumContentClasses; ++c) {
      out << PadLeft(
          FormatPercent(s->ObjectShare(static_cast<trace::ContentClass>(c)), 1),
          kNumCol);
    }
    out << '\n';
  }
}

void RenderTrafficComposition(
    const std::vector<const CompositionResult*>& sites, std::ostream& out) {
  out << "(a) request count\n";
  out << PadRight("site", kSiteCol) << PadLeft("requests", kNumCol)
      << PadLeft("video", kNumCol) << PadLeft("image", kNumCol)
      << PadLeft("other", kNumCol) << '\n';
  Rule(out, kSiteCol + 4 * kNumCol);
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol)
        << PadLeft(FormatCount(static_cast<double>(s->TotalRequests())),
                   kNumCol);
    for (int c = 0; c < trace::kNumContentClasses; ++c) {
      out << PadLeft(
          FormatPercent(s->RequestShare(static_cast<trace::ContentClass>(c)),
                        1),
          kNumCol);
    }
    out << '\n';
  }
  out << "\n(b) request size (delivered bytes)\n";
  out << PadRight("site", kSiteCol) << PadLeft("bytes", kNumCol)
      << PadLeft("video", kNumCol) << PadLeft("image", kNumCol)
      << PadLeft("other", kNumCol) << '\n';
  Rule(out, kSiteCol + 4 * kNumCol);
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol)
        << PadLeft(FormatBytes(static_cast<double>(s->TotalBytes())), kNumCol);
    for (int c = 0; c < trace::kNumContentClasses; ++c) {
      out << PadLeft(
          FormatPercent(s->ByteShare(static_cast<trace::ContentClass>(c)), 1),
          kNumCol);
    }
    out << '\n';
  }
}

void RenderHourlyVolume(const std::vector<const HourlyVolume*>& sites,
                        std::ostream& out) {
  out << PadRight("hour", 6);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 6 + sites.size() * 8);
  for (int h = 0; h < 24; ++h) {
    out << PadRight(std::to_string(h), 6);
    for (const auto* s : sites) {
      out << PadLeft(util::FormatDouble(
                         s->percent_by_hour[static_cast<std::size_t>(h)], 2),
                     8);
    }
    out << '\n';
  }
  out << '\n';
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol) << " peak hour "
        << PadLeft(std::to_string(s->PeakHour()), 2) << ":00 local, trough "
        << PadLeft(std::to_string(s->TroughHour()), 2)
        << ":00, peak/mean=" << util::FormatDouble(s->PeakToMean(), 2) << '\n';
  }
}

void RenderDeviceComposition(
    const std::vector<const DeviceComposition*>& sites, std::ostream& out) {
  out << PadRight("site", kSiteCol) << PadLeft("users", kNumCol);
  for (int d = 0; d < trace::kNumDeviceTypes; ++d) {
    out << PadLeft(trace::ToString(static_cast<trace::DeviceType>(d)), 10);
  }
  out << PadLeft("mobile", 10) << '\n';
  Rule(out, kSiteCol + kNumCol + 5 * 10);
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol)
        << PadLeft(FormatCount(static_cast<double>(s->unique_users)), kNumCol);
    for (int d = 0; d < trace::kNumDeviceTypes; ++d) {
      out << PadLeft(
          FormatPercent(s->user_share[static_cast<std::size_t>(d)], 1), 10);
    }
    out << PadLeft(FormatPercent(s->MobileShare(), 1), 10) << '\n';
  }
}

namespace {

void RenderCdfGrid(std::ostream& out, const std::string& title,
                   const std::vector<std::pair<std::string, const stats::Ecdf*>>&
                       named_cdfs,
                   std::size_t points) {
  out << title << '\n';
  out << PadRight("x", 14);
  for (const auto& [name, cdf] : named_cdfs) {
    (void)cdf;
    out << PadLeft(name, 9);
  }
  out << '\n';
  Rule(out, 14 + named_cdfs.size() * 9);
  // Shared log grid spanning all series.
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const auto& [name, cdf] : named_cdfs) {
    (void)name;
    if (cdf->empty()) continue;
    const double c_lo = std::max(cdf->Min(), 1e-9);
    if (first) {
      lo = c_lo;
      hi = cdf->Max();
      first = false;
    } else {
      lo = std::min(lo, c_lo);
      hi = std::max(hi, cdf->Max());
    }
  }
  if (first) {
    out << "(no data)\n";
    return;
  }
  hi = std::max(hi, lo * 1.0000001);
  const double llo = std::log10(lo), lhi = std::log10(hi);
  for (std::size_t i = 0; i < points; ++i) {
    const double x = std::pow(
        10.0, llo + (lhi - llo) * static_cast<double>(i) /
                        static_cast<double>(points - 1));
    out << PadRight(util::FormatDouble(x, x < 10 ? 2 : 0), 14);
    for (const auto& [name, cdf] : named_cdfs) {
      (void)name;
      out << PadLeft(
          cdf->empty() ? "-" : util::FormatDouble(cdf->Evaluate(x), 3), 9);
    }
    out << '\n';
  }
}

}  // namespace

void RenderSizeDistributions(
    const std::vector<const SizeDistributions*>& sites, std::ostream& out,
    std::size_t grid_points) {
  std::vector<std::pair<std::string, const stats::Ecdf*>> video, image;
  for (const auto* s : sites) {
    video.emplace_back(s->site, &s->video);
    image.emplace_back(s->site, &s->image);
  }
  RenderCdfGrid(out, "(a) video object sizes (bytes): CDF", video, grid_points);
  out << '\n';
  RenderCdfGrid(out, "(b) image object sizes (bytes): CDF", image, grid_points);
  out << '\n';
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol) << " video>1MB "
        << PadLeft(FormatPercent(s->VideoAboveMb(), 1), 7) << "   image<1MB "
        << PadLeft(FormatPercent(s->ImageBelowMb(), 1), 7)
        << "   image bimodal: "
        << (ImageSizesAreBimodal(s->image) ? "yes" : "no") << '\n';
  }
}

void RenderPopularity(const std::vector<const PopularityResult*>& sites,
                      std::ostream& out, std::size_t grid_points) {
  std::vector<std::pair<std::string, const stats::Ecdf*>> video, image;
  for (const auto* s : sites) {
    video.emplace_back(s->site, &s->video_counts);
    image.emplace_back(s->site, &s->image_counts);
  }
  RenderCdfGrid(out, "(a) video object request counts: CDF", video,
                grid_points);
  out << '\n';
  RenderCdfGrid(out, "(b) image object request counts: CDF", image,
                grid_points);
  out << '\n';
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol) << " top10% share "
        << PadLeft(FormatPercent(s->top10_share, 1), 7) << "  gini "
        << util::FormatDouble(s->gini, 3) << "  power-law alpha "
        << util::FormatDouble(s->power_law.alpha, 2) << " (x_min="
        << util::FormatDouble(s->power_law.x_min, 0)
        << ", ks=" << util::FormatDouble(s->power_law.ks, 3) << ")\n";
  }
}

void RenderAging(const std::vector<const AgingResult*>& sites,
                 std::ostream& out) {
  out << "(observability-corrected: of objects with >= d observable days)\n";
  out << PadRight("age(d)", 8);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 8 + sites.size() * 8);
  for (int d = 0; d < kMaxAgeDays; ++d) {
    out << PadRight(std::to_string(d + 1), 8);
    for (const auto* s : sites) {
      out << PadLeft(util::FormatDouble(
                         s->fraction_requested[static_cast<std::size_t>(d)], 3),
                     8);
    }
    out << '\n';
  }
  out << "\n(paper's raw variant: requested-at-day-d over all objects)\n";
  out << PadRight("age(d)", 8);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 8 + sites.size() * 8);
  for (int d = 0; d < kMaxAgeDays; ++d) {
    out << PadRight(std::to_string(d + 1), 8);
    for (const auto* s : sites) {
      out << PadLeft(util::FormatDouble(
                         s->fraction_requested_uncorrected[
                             static_cast<std::size_t>(d)],
                         3),
                     8);
    }
    out << '\n';
  }
  out << '\n';
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol) << " silent after day 3: "
        << PadLeft(FormatPercent(s->silent_after_3_days, 1), 7)
        << "   requested all 7 days: "
        << PadLeft(FormatPercent(s->requested_all_days, 1), 7) << '\n';
  }
}

void RenderTrendClusters(const TrendClusterResult& result, std::ostream& out) {
  out << result.site << " " << trace::ToString(result.content_class)
      << " objects: " << result.clustered_objects
      << " clustered, k=" << result.clusters.size()
      << ", silhouette=" << util::FormatDouble(result.silhouette, 3) << '\n';
  Rule(out, 64);
  for (const auto& c : result.clusters) {
    out << PadRight(synth::ToString(c.shape), 14)
        << PadLeft(FormatPercent(c.share, 0), 6) << "  ("
        << c.member_count << " objects)\n";
  }
}

void RenderClusterMedoids(const TrendClusterResult& result, std::ostream& out,
                          std::size_t width) {
  out << result.site << " " << trace::ToString(result.content_class)
      << " cluster medoids (Sat..Fri, normalized request count):\n";
  for (const auto& c : result.clusters) {
    double mean_sigma = 0.0;
    for (double s : c.pointwise_stddev) mean_sigma += s;
    if (!c.pointwise_stddev.empty()) {
      mean_sigma /= static_cast<double>(c.pointwise_stddev.size());
    }
    out << PadRight(synth::ToString(c.shape), 14)
        << PadLeft(FormatPercent(c.share, 0), 5) << " |"
        << cluster::Sparkline(c.medoid_series, width) << "| sigma~"
        << util::FormatDouble(mean_sigma, 4) << '\n';
  }
}

void RenderSessions(const std::vector<const SessionResult*>& sites,
                    std::ostream& out) {
  // The paper's x-axis points for Figs. 11/12.
  struct Point {
    const char* label;
    double seconds;
  };
  static constexpr Point kIatPoints[] = {
      {"1 sec", 1},      {"5 sec", 5},       {"1 min", 60},
      {"10 min", 600},   {"1 hr", 3600},     {"1 day", 86400},
      {"1 week", 604800}};
  static constexpr Point kSessionPoints[] = {{"1 sec", 1},
                                             {"5 sec", 5},
                                             {"1 min", 60},
                                             {"10 min", 600},
                                             {"1 hr", 3600}};
  out << "(Fig. 11) user request inter-arrival time CDF\n";
  out << PadRight("IAT", 8);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 8 + sites.size() * 8);
  for (const auto& p : kIatPoints) {
    out << PadRight(p.label, 8);
    for (const auto* s : sites) {
      out << PadLeft(
          s->iat_seconds.empty()
              ? "-"
              : util::FormatDouble(s->iat_seconds.Evaluate(p.seconds), 3),
          8);
    }
    out << '\n';
  }
  out << "\n(Fig. 12) user session length CDF (10 min timeout)\n";
  out << PadRight("len", 8);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 8 + sites.size() * 8);
  for (const auto& p : kSessionPoints) {
    out << PadRight(p.label, 8);
    for (const auto* s : sites) {
      out << PadLeft(
          s->session_length_seconds.empty()
              ? "-"
              : util::FormatDouble(
                    s->session_length_seconds.Evaluate(p.seconds), 3),
          8);
    }
    out << '\n';
  }
  out << '\n';
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol) << " median IAT "
        << PadLeft(util::FormatDuration(
                       static_cast<std::int64_t>(s->MedianIatSeconds() * 1000)),
                   10)
        << "   median session "
        << PadLeft(util::FormatDuration(static_cast<std::int64_t>(
                       s->MedianSessionSeconds() * 1000)),
                   10)
        << "   sessions " << FormatCount(static_cast<double>(s->session_count))
        << '\n';
  }
}

void RenderRepeatedAccess(const EngagementResult& result, std::ostream& out) {
  // Log-binned 2D summary of the Fig. 13 scatter: rows = unique-user decade,
  // columns = requests/user bands.
  out << result.site << " repeated access (objects by users x requests/user):\n";
  static constexpr double kUserEdges[] = {1, 10, 100, 1000, 10000, 1e9};
  static constexpr double kRpuEdges[] = {1.5, 3, 10, 1e9};
  static const char* const kRpuLabels[] = {"~1x", "1.5-3x", "3-10x", ">10x"};
  out << PadRight("users", 12);
  for (const char* l : kRpuLabels) out << PadLeft(l, 9);
  out << '\n';
  Rule(out, 12 + 4 * 9);
  for (std::size_t u = 0; u + 1 < std::size(kUserEdges); ++u) {
    std::array<std::uint64_t, 4> row{};
    for (const auto& obj : result.objects) {
      const auto users = static_cast<double>(obj.unique_users);
      if (users < kUserEdges[u] || users >= kUserEdges[u + 1]) continue;
      const double rpu = obj.RequestsPerUser();
      std::size_t band = 0;
      while (band < 3 && rpu >= kRpuEdges[band]) ++band;
      ++row[band];
    }
    char label[32];
    std::snprintf(label, sizeof(label), "[%g,%g)", kUserEdges[u],
                  kUserEdges[u + 1]);
    out << PadRight(label, 12);
    for (auto v : row) out << PadLeft(FormatCount(static_cast<double>(v)), 9);
    out << '\n';
  }
  out << "addicted objects (>=3 req/user): " << result.addicted_objects
      << ", viral: " << result.viral_objects << '\n';
}

void RenderEngagement(const std::vector<const EngagementResult*>& sites,
                      std::ostream& out) {
  static constexpr double kPoints[] = {1, 2, 5, 10, 20, 50, 100};
  out << "(a) video: CDF of requests per user\n";
  out << PadRight("req/user", 10);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 10 + sites.size() * 8);
  for (double p : kPoints) {
    out << PadRight(util::FormatDouble(p, 0), 10);
    for (const auto* s : sites) {
      out << PadLeft(s->video_requests_per_user.empty()
                         ? "-"
                         : util::FormatDouble(
                               s->video_requests_per_user.Evaluate(p), 3),
                     8);
    }
    out << '\n';
  }
  out << "\n(b) image: CDF of requests per user\n";
  out << PadRight("req/user", 10);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 10 + sites.size() * 8);
  for (double p : kPoints) {
    out << PadRight(util::FormatDouble(p, 0), 10);
    for (const auto* s : sites) {
      out << PadLeft(s->image_requests_per_user.empty()
                         ? "-"
                         : util::FormatDouble(
                               s->image_requests_per_user.Evaluate(p), 3),
                     8);
    }
    out << '\n';
  }
  out << '\n';
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol) << " video objects >10 req/user: "
        << PadLeft(FormatPercent(s->video_frac_over_10, 1), 7)
        << "   image objects >10 req/user: "
        << PadLeft(FormatPercent(s->image_frac_over_10, 1), 7) << '\n';
  }
}

void RenderCaching(const std::vector<const CachingResult*>& sites,
                   std::ostream& out) {
  static constexpr double kRatios[] = {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99};
  out << "(a) image: CDF of per-object hit ratio\n";
  out << PadRight("ratio", 8);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 8 + sites.size() * 8);
  for (double r : kRatios) {
    out << PadRight(util::FormatDouble(r, 2), 8);
    for (const auto* s : sites) {
      out << PadLeft(
          s->image_hit_ratio.empty()
              ? "-"
              : util::FormatDouble(s->image_hit_ratio.Evaluate(r), 3),
          8);
    }
    out << '\n';
  }
  out << "\n(b) video: CDF of per-object hit ratio\n";
  out << PadRight("ratio", 8);
  for (const auto* s : sites) out << PadLeft(s->site, 8);
  out << '\n';
  Rule(out, 8 + sites.size() * 8);
  for (double r : kRatios) {
    out << PadRight(util::FormatDouble(r, 2), 8);
    for (const auto* s : sites) {
      out << PadLeft(
          s->video_hit_ratio.empty()
              ? "-"
              : util::FormatDouble(s->video_hit_ratio.Evaluate(r), 3),
          8);
    }
    out << '\n';
  }
  out << '\n';
  for (const auto* s : sites) {
    out << PadRight(s->site, kSiteCol) << " overall hit ratio "
        << PadLeft(FormatPercent(s->overall_hit_ratio, 1), 7) << " (video "
        << FormatPercent(s->video_overall_hit_ratio, 1) << ", image "
        << FormatPercent(s->image_overall_hit_ratio, 1)
        << "), popularity corr " << util::FormatDouble(
               s->popularity_hit_correlation, 3)
        << ", 304 share " << FormatPercent(s->NotModifiedShare(), 2) << '\n';
  }
}

void RenderResponseCodes(const std::vector<const CachingResult*>& sites,
                         std::ostream& out) {
  // Collect the union of codes, keeping the paper's order first.
  std::vector<std::uint16_t> codes = {200, 204, 206, 304, 403, 416};
  std::set<std::uint16_t> known(codes.begin(), codes.end());
  for (const auto* s : sites) {
    for (const auto& [code, count] : s->all_response_codes) {
      (void)count;
      if (known.insert(code).second) codes.push_back(code);
    }
  }
  const auto render_panel =
      [&](const char* title,
          const std::map<std::uint16_t, std::uint64_t> CachingResult::*field) {
        out << title << '\n';
        out << PadRight("code", 8);
        for (const auto* s : sites) out << PadLeft(s->site, 10);
        out << '\n';
        Rule(out, 8 + sites.size() * 10);
        for (const auto code : codes) {
          out << PadRight(std::to_string(code), 8);
          for (const auto* s : sites) {
            const auto& m = s->*field;
            const auto it = m.find(code);
            out << PadLeft(
                it == m.end() ? "0"
                              : FormatCount(static_cast<double>(it->second)),
                10);
          }
          out << '\n';
        }
      };
  render_panel("(a) video response codes", &CachingResult::video_response_codes);
  out << '\n';
  render_panel("(b) image response codes", &CachingResult::image_response_codes);
}

}  // namespace atlas::analysis
