#include "analysis/temporal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/feed.h"
#include "analysis/state_codec.h"
#include "util/time.h"

namespace atlas::analysis {

int HourlyVolume::PeakHour() const {
  return static_cast<int>(std::max_element(percent_by_hour.begin(),
                                           percent_by_hour.end()) -
                          percent_by_hour.begin());
}

int HourlyVolume::TroughHour() const {
  return static_cast<int>(std::min_element(percent_by_hour.begin(),
                                           percent_by_hour.end()) -
                          percent_by_hour.begin());
}

double HourlyVolume::PeakToMean() const {
  const double peak =
      *std::max_element(percent_by_hour.begin(), percent_by_hour.end());
  const double mean = 100.0 / 24.0;
  return peak / mean;
}

HourlyVolumeAccumulator::HourlyVolumeAccumulator() {
  result_.week_series =
      stats::TimeSeries(util::kMillisPerHour, util::kHoursPerWeek);
}

void HourlyVolumeAccumulator::AddBatch(const trace::RecordBlock& b,
                                       const std::uint32_t* rows,
                                       std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = rows ? rows[k] : k;
    const std::int64_t local = b.LocalTimestampMs(i);
    const int hour = util::HourOfDay(local);
    const auto bytes = static_cast<double>(b.response_bytes[i]);
    counts_[static_cast<std::size_t>(hour)] += 1.0;
    bytes_[static_cast<std::size_t>(hour)] += bytes;
    total_count_ += 1.0;
    total_bytes_ += bytes;
    // Weekly series folds local time into the observed week.
    const std::int64_t wrapped =
        ((local % util::kMillisPerWeek) + util::kMillisPerWeek) %
        util::kMillisPerWeek;
    result_.week_series.Accumulate(wrapped, 1.0);
  }
}

HourlyVolume HourlyVolumeAccumulator::Finalize(const std::string& site_name) {
  result_.site = site_name;
  for (int h = 0; h < 24; ++h) {
    const auto i = static_cast<std::size_t>(h);
    result_.percent_by_hour[i] =
        total_count_ > 0.0 ? counts_[i] / total_count_ * 100.0 : 0.0;
    result_.percent_bytes_by_hour[i] =
        total_bytes_ > 0.0 ? bytes_[i] / total_bytes_ * 100.0 : 0.0;
  }
  return std::move(result_);
}

HourlyVolume ComputeHourlyVolume(const trace::TraceBuffer& site_trace,
                                 const std::string& site_name) {
  HourlyVolumeAccumulator acc;
  FeedTrace(site_trace, acc);
  return acc.Finalize(site_name);
}

namespace {
constexpr std::uint32_t kHourlyVolumeStateVersion = 1;
}  // namespace

void HourlyVolumeAccumulator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kHourlyVolumeStateVersion);
  for (const double c : counts_) w.WriteDouble(c);
  for (const double b : bytes_) w.WriteDouble(b);
  w.WriteDouble(total_count_);
  w.WriteDouble(total_bytes_);
  SaveTimeSeries(w, result_.week_series);
}

void HourlyVolumeAccumulator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("hourly volume accumulator", kHourlyVolumeStateVersion);
  for (double& c : counts_) c = r.ReadDouble();
  for (double& b : bytes_) b = r.ReadDouble();
  total_count_ = r.ReadDouble();
  total_bytes_ = r.ReadDouble();
  result_.week_series = LoadTimeSeries(r);
}

}  // namespace atlas::analysis
