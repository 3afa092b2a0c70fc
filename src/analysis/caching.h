// CDN caching implications (Figs. 15, 16 / §V).
//
// Fig. 15: per-object cache hit ratios (the CDN treats video chunks as
// separate objects for caching, but the figure is per URL — chunk records
// aggregate into their parent object here too).
// Fig. 16: HTTP response-code counts for video and image objects.
// Plus the §V headline: popularity/hit-ratio correlation (> 0.9 in the
// paper) and the aggregate 80-90% hit-ratio range.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/ecdf.h"
#include "trace/block.h"
#include "trace/record.h"
#include "trace/trace_buffer.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

struct CachingResult {
  std::string site;
  // Fig. 15 CDFs of per-object hit ratio, by class.
  stats::Ecdf video_hit_ratio;
  stats::Ecdf image_hit_ratio;
  // Aggregate request-weighted hit ratio.
  double overall_hit_ratio = 0.0;
  double video_overall_hit_ratio = 0.0;
  double image_overall_hit_ratio = 0.0;
  // Spearman correlation between per-object popularity (requests) and hit
  // ratio (the paper reports > 0.9).
  double popularity_hit_correlation = 0.0;
  // Fig. 16: response-code -> request count, by class.
  std::map<std::uint16_t, std::uint64_t> video_response_codes;
  std::map<std::uint16_t, std::uint64_t> image_response_codes;
  std::map<std::uint16_t, std::uint64_t> all_response_codes;

  // Fraction of all responses that are 304 (the incognito-browsing signal:
  // low for adult sites).
  double NotModifiedShare() const;
};

// Single-pass accumulator behind ComputeCaching; O(distinct objects) state.
class CachingAccumulator {
 public:
  explicit CachingAccumulator(std::size_t size_hint = 0);
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in that order.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  CachingResult Finalize(const std::string& site_name);

 private:
  struct ObjAcc {
    trace::ContentClass cls = trace::ContentClass::kOther;
    std::uint64_t cacheable = 0;  // content-bearing responses (200/206/304)
    std::uint64_t hits = 0;
  };

  CachingResult result_;
  util::FlatHashMap<std::uint64_t, ObjAcc> per_object_;
  std::uint64_t total_cacheable_ = 0, total_hits_ = 0;
  std::uint64_t video_cacheable_ = 0, video_hits_ = 0;
  std::uint64_t image_cacheable_ = 0, image_hits_ = 0;
};

CachingResult ComputeCaching(const trace::TraceBuffer& trace,
                             const std::string& site_name);

}  // namespace atlas::analysis
