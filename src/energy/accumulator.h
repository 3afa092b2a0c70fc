// EnergyAccumulator: the engine-facing half of atlas::energy.
//
// An accumulator attaches to a run through the SimulatorConfig
// epoch-observer hook and folds each barrier's per-DC counter deltas into
// cumulative 64-bit counters. It is:
//
//   checkpointable — SaveState/RestoreState round-trip every counter, so
//                    a killed run resumed from its checkpoint reports the
//                    same joules to the bit;
//   passive        — it observes deltas the engine already tracks and can
//                    never influence a record.
//
// Joules/dollars are only ever derived at Report() time from the integer
// counters, in DC index order, so any execution schedule that produces the
// same counters produces bit-identical doubles.
#pragma once

#include <cstdint>
#include <vector>

#include "energy/model.h"

namespace atlas::ckpt {
class Writer;
class Reader;
}  // namespace atlas::ckpt

namespace atlas::energy {

class EnergyAccumulator {
 public:
  // Folds one barrier's samples in (the engine fires these serially).
  void Observe(const cdn::EpochSample& sample);

  // Adapter for SimulatorConfig::epoch_observer. The accumulator must
  // outlive the run the observer is attached to.
  cdn::EpochObserver Observer() {
    return [this](const cdn::EpochSample& s) { Observe(s); };
  }

  // Versioned counter round-trip (section management is the caller's).
  void SaveState(ckpt::Writer& w) const;
  void RestoreState(ckpt::Reader& r);

  // Derives joules/dollars from the counters under `model`'s parameters.
  EnergyReport Report(const EnergyModel& model) const;

  std::int64_t span_ms() const { return span_ms_; }
  std::uint64_t epochs() const { return epochs_; }
  const std::vector<DcCounters>& dcs() const { return dcs_; }

  bool operator==(const EnergyAccumulator&) const = default;

 private:
  std::int64_t span_ms_ = 0;   // sum of observed epoch windows
  std::uint64_t epochs_ = 0;   // barriers observed
  std::vector<DcCounters> dcs_;
};

}  // namespace atlas::energy
