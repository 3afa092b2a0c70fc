// Content size distributions (Fig. 5).
//
// "Figure 5 plots the Cumulative Distribution Functions (CDFs) of content
// sizes ... majority of requested video objects have sizes greater than
// 1 MB and image objects are less than 1 MB ... multiple adult websites
// have bi-modal [image] distributions". Sizes are per *object* (each
// distinct object contributes once, at its full size).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"  // atlas-lint: allow(layer-dag) ckpt is the passive serialization substrate; consuming its codec interface does not invert control flow
#include "stats/ecdf.h"
#include "trace/block.h"
#include "trace/trace_buffer.h"
#include "util/flat_hash.h"

namespace atlas::analysis {

struct SizeDistributions {
  std::string site;
  stats::Ecdf video;  // may be empty for image-only sites
  stats::Ecdf image;
  stats::Ecdf other;

  // Fraction of video objects above 1 MB / image objects below 1 MB — the
  // two headline claims of §IV-B.
  double VideoAboveMb() const;
  double ImageBelowMb() const;
};

// Single-pass accumulator behind ComputeSizeDistributions. Keeps the size
// and type of each object's first-seen record (by value — records are not
// retained, so the input may be a transient stream chunk).
class SizeDistributionsAccumulator {
 public:
  explicit SizeDistributionsAccumulator(std::size_t size_hint = 0);
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in that order.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  SizeDistributions Finalize(const std::string& site_name);

  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 private:
  struct FirstSeen {
    std::uint64_t object_size = 0;
    trace::FileType file_type{};
  };
  util::FlatHashMap<std::uint64_t, FirstSeen> firsts_;
};

SizeDistributions ComputeSizeDistributions(const trace::TraceBuffer& trace,
                                           const std::string& site_name);

// Detects bimodality of the image-size distribution via log-histogram modes
// (>= 2 well-separated modes). Exposed for tests and reports.
bool ImageSizesAreBimodal(const stats::Ecdf& image_sizes);

}  // namespace atlas::analysis
