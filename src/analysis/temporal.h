// Temporal access patterns (Fig. 3).
//
// "Figure 3 plots the normalized hourly timeseries of traffic volume across
// the day. We converted the timestamps to local timezones to calculate
// hourly traffic volumes." Volume here is request count (the paper's
// 'traffic volume' series is normalized, so count vs. bytes only changes
// the units; both are provided).
#pragma once

#include <array>
#include <string>

#include "ckpt/checkpoint.h"  // atlas-lint: allow(layer-dag) ckpt is the passive serialization substrate; consuming its codec interface does not invert control flow
#include "stats/timeseries.h"
#include "trace/block.h"
#include "trace/trace_buffer.h"

namespace atlas::analysis {

struct HourlyVolume {
  std::string site;
  // Percentage of the site's weekly volume falling in each local
  // hour-of-day (sums to 100).
  std::array<double, 24> percent_by_hour{};
  std::array<double, 24> percent_bytes_by_hour{};
  // Full 168-hour local-time series (request counts) for weekly views.
  stats::TimeSeries week_series;

  int PeakHour() const;
  int TroughHour() const;
  // Peak-to-mean ratio: how pronounced the daily cycle is.
  double PeakToMean() const;
};

// Single-pass accumulator behind ComputeHourlyVolume. Records must be fed
// in trace order for bit-identical float sums between the streaming and
// in-memory paths (both feed chronological order).
class HourlyVolumeAccumulator {
 public:
  HourlyVolumeAccumulator();
  // Rows rows[0..n) of b (all of [0, n) when rows is null), in that order.
  // The float sums accumulate one row at a time, so the result does not
  // depend on how the stream is cut into blocks.
  void AddBatch(const trace::RecordBlock& b, const std::uint32_t* rows,
                std::size_t n);
  HourlyVolume Finalize(const std::string& site_name);

  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

 private:
  HourlyVolume result_;
  std::array<double, 24> counts_{};
  std::array<double, 24> bytes_{};
  double total_count_ = 0.0;
  double total_bytes_ = 0.0;
};

HourlyVolume ComputeHourlyVolume(const trace::TraceBuffer& site_trace,
                                 const std::string& site_name);

}  // namespace atlas::analysis
