#include "energy/accumulator.h"

#include "ckpt/checkpoint.h"

namespace atlas::energy {
namespace {

constexpr std::uint32_t kEnergyAccumulatorStateVersion = 1;

}  // namespace

void EnergyAccumulator::Observe(const cdn::EpochSample& sample) {
  const std::int64_t window_ms = sample.end_ms - sample.start_ms;
  span_ms_ += window_ms;
  ++epochs_;
  if (dcs_.size() < sample.dcs.size()) dcs_.resize(sample.dcs.size());
  for (std::size_t d = 0; d < sample.dcs.size(); ++d) {
    const cdn::EpochDcSample& in = sample.dcs[d];
    DcCounters& c = dcs_[d];
    c.hits += in.edge.hits;
    c.misses += in.edge.misses;
    c.hit_bytes += in.edge.hit_bytes;
    c.miss_bytes += in.edge.miss_bytes;
    c.origin_fetches += in.origin.fetches;
    c.origin_bytes += in.origin.bytes;
    c.peer_fetches += in.peer_fetches;
    c.peer_bytes += in.peer_bytes;
    c.pushed_bytes += in.pushed_bytes;
    c.revalidations += in.revalidations;
    // Occupancy sampled at the barrier, held for the window. KiB
    // truncation is deterministic: every schedule sees the same bytes.
    c.resident_kib_ms += (in.resident_bytes >> 10) *
                         static_cast<std::uint64_t>(window_ms);
  }
}

void EnergyAccumulator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kEnergyAccumulatorStateVersion);
  w.WriteI64(span_ms_);
  w.WriteU64(epochs_);
  w.WriteU64(static_cast<std::uint64_t>(dcs_.size()));
  for (const DcCounters& c : dcs_) {
    w.WriteU64(c.hits);
    w.WriteU64(c.misses);
    w.WriteU64(c.hit_bytes);
    w.WriteU64(c.miss_bytes);
    w.WriteU64(c.origin_fetches);
    w.WriteU64(c.origin_bytes);
    w.WriteU64(c.peer_fetches);
    w.WriteU64(c.peer_bytes);
    w.WriteU64(c.pushed_bytes);
    w.WriteU64(c.revalidations);
    w.WriteU64(c.resident_kib_ms);
  }
}

void EnergyAccumulator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("energy accumulator", kEnergyAccumulatorStateVersion);
  span_ms_ = r.ReadI64();
  epochs_ = r.ReadU64();
  dcs_.clear();
  const std::uint64_t ndc = r.ReadU64();
  dcs_.reserve(static_cast<std::size_t>(ndc));
  for (std::uint64_t i = 0; i < ndc; ++i) {
    DcCounters c;
    c.hits = r.ReadU64();
    c.misses = r.ReadU64();
    c.hit_bytes = r.ReadU64();
    c.miss_bytes = r.ReadU64();
    c.origin_fetches = r.ReadU64();
    c.origin_bytes = r.ReadU64();
    c.peer_fetches = r.ReadU64();
    c.peer_bytes = r.ReadU64();
    c.pushed_bytes = r.ReadU64();
    c.revalidations = r.ReadU64();
    c.resident_kib_ms = r.ReadU64();
    dcs_.push_back(c);
  }
}

EnergyReport EnergyAccumulator::Report(const EnergyModel& model) const {
  EnergyReport report;
  report.span_ms = span_ms_;
  report.epochs = epochs_;
  report.dcs.reserve(dcs_.size());
  for (std::size_t d = 0; d < dcs_.size(); ++d) {
    DcEnergy dc;
    dc.dc = static_cast<int>(d);
    dc.served_bytes = dcs_[d].served_bytes();
    dc.duty = model.DutyCycle(dc.served_bytes, span_ms_);
    dc.energy = model.Cost(dcs_[d], span_ms_);
    report.total.Add(dc.energy);
    report.dcs.push_back(dc);
  }
  return report;
}

}  // namespace atlas::energy
