#include "analysis/caching.h"

#include <utility>

#include "analysis/feed.h"
#include "stats/correlation.h"
#include "trace/content_class.h"

namespace atlas::analysis {

double CachingResult::NotModifiedShare() const {
  std::uint64_t total = 0, not_modified = 0;
  for (const auto& [code, count] : all_response_codes) {
    total += count;
    if (code == trace::kHttpNotModified) not_modified += count;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(not_modified) /
                          static_cast<double>(total);
}

CachingAccumulator::CachingAccumulator(std::size_t size_hint) {
  per_object_.reserve(size_hint / 4 + 1);
}

void CachingAccumulator::AddBatch(const trace::RecordBlock& b,
                                  const std::uint32_t* rows, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const trace::ContentClass cls = trace::ClassOf(b.file_type[i]);
    const std::uint16_t response_code = b.response_code[i];
    // Fig. 16 counts every response.
    ++result_.all_response_codes[response_code];
    if (cls == trace::ContentClass::kVideo) {
      ++result_.video_response_codes[response_code];
    } else if (cls == trace::ContentClass::kImage) {
      ++result_.image_response_codes[response_code];
    }
    // Hit-ratio accounting only covers responses the cache could answer
    // (errors like 403/416 and beacons say nothing about cache state).
    if (response_code != trace::kHttpOk &&
        response_code != trace::kHttpPartialContent &&
        response_code != trace::kHttpNotModified) {
      continue;
    }
    auto& acc = per_object_[b.url_hash[i]];
    acc.cls = cls;
    ++acc.cacheable;
    ++total_cacheable_;
    const bool hit = b.cache_status[i] == trace::CacheStatus::kHit;
    if (hit) {
      ++acc.hits;
      ++total_hits_;
    }
    if (cls == trace::ContentClass::kVideo) {
      ++video_cacheable_;
      if (hit) ++video_hits_;
    } else if (cls == trace::ContentClass::kImage) {
      ++image_cacheable_;
      if (hit) ++image_hits_;
    }
  }
}

CachingResult CachingAccumulator::Finalize(const std::string& site_name) {
  CachingResult result = std::move(result_);
  result.site = site_name;
  const std::uint64_t total_cacheable = total_cacheable_;
  const std::uint64_t total_hits = total_hits_;
  const std::uint64_t video_cacheable = video_cacheable_;
  const std::uint64_t video_hits = video_hits_;
  const std::uint64_t image_cacheable = image_cacheable_;
  const std::uint64_t image_hits = image_hits_;

  std::vector<double> popularity, hit_ratio;
  popularity.reserve(per_object_.size());
  hit_ratio.reserve(per_object_.size());
  // Sorted-hash order: the Spearman correlation below sums floating-point
  // ranks in sample order, so the order must not depend on hash-table layout.
  for (const auto hash : per_object_.SortedKeys()) {
    const auto& acc = per_object_.At(hash);
    if (acc.cacheable == 0) continue;
    const double ratio = static_cast<double>(acc.hits) /
                         static_cast<double>(acc.cacheable);
    if (acc.cls == trace::ContentClass::kVideo) {
      result.video_hit_ratio.Add(ratio);
    } else if (acc.cls == trace::ContentClass::kImage) {
      result.image_hit_ratio.Add(ratio);
    }
    popularity.push_back(static_cast<double>(acc.cacheable));
    hit_ratio.push_back(ratio);
  }
  result.video_hit_ratio.Finalize();
  result.image_hit_ratio.Finalize();

  result.overall_hit_ratio =
      total_cacheable == 0 ? 0.0
                           : static_cast<double>(total_hits) /
                                 static_cast<double>(total_cacheable);
  result.video_overall_hit_ratio =
      video_cacheable == 0 ? 0.0
                           : static_cast<double>(video_hits) /
                                 static_cast<double>(video_cacheable);
  result.image_overall_hit_ratio =
      image_cacheable == 0 ? 0.0
                           : static_cast<double>(image_hits) /
                                 static_cast<double>(image_cacheable);
  if (popularity.size() >= 2) {
    result.popularity_hit_correlation =
        stats::SpearmanCorrelation(popularity, hit_ratio);
  }
  return result;
}

CachingResult ComputeCaching(const trace::TraceBuffer& trace,
                             const std::string& site_name) {
  CachingAccumulator acc(trace.size());
  FeedTrace(trace, acc);
  return acc.Finalize(site_name);
}

}  // namespace atlas::analysis
