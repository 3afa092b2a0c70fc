// Content popularity (Fig. 6).
//
// "We quantify object popularity in terms of request count ... We observe
// long-tail distributions for all adult websites." Popularity CDFs are per
// class (video/image panels in the figure); the skewness summaries (power-
// law exponent, top-10% share, Gini) quantify "the expected skewness".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/ecdf.h"
#include "stats/powerlaw.h"
#include "trace/block.h"
#include "trace/trace_buffer.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

struct PopularityResult {
  std::string site;
  // Request counts per distinct object, split by class.
  stats::Ecdf video_counts;
  stats::Ecdf image_counts;
  // All classes combined.
  stats::Ecdf all_counts;
  // Skewness summaries over all objects.
  stats::PowerLawFit power_law;
  double top10_share = 0.0;  // requests owned by the top 10% of objects
  double gini = 0.0;
};

// Single-pass accumulator behind ComputePopularity; O(distinct objects)
// state.
class PopularityAccumulator {
 public:
  explicit PopularityAccumulator(std::size_t size_hint = 0);
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in that order.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  PopularityResult Finalize(const std::string& site_name);

 private:
  util::FlatHashMap<std::uint64_t, std::uint64_t> counts_;
  util::FlatHashMap<std::uint64_t, trace::ContentClass> classes_;
};

PopularityResult ComputePopularity(const trace::TraceBuffer& trace,
                                   const std::string& site_name);

}  // namespace atlas::analysis
