#include "energy/run.h"

#include <stdexcept>
#include <utility>

#include "ckpt/checkpoint.h"  // atlas-lint: allow(layer-dag) ckpt is the passive serialization substrate; consuming its codec interface does not invert control flow

namespace atlas::energy {
namespace {

// Checkpoint section carrying the accumulator's counters.
constexpr char kEnergySection[] = "energy.accumulator";
constexpr std::uint32_t kEnergySectionVersion = 1;

}  // namespace

cdn::CheckpointOptions AttachEnergy(EnergyAccumulator& acc,
                                    cdn::SimulatorConfig& config,
                                    const cdn::CheckpointOptions& base) {
  config.epoch_observer = acc.Observer();
  cdn::CheckpointOptions opts = base;
  // The observer fires before the engine cuts a snapshot, so the counters
  // serialized here cover exactly the barriers the checkpoint covers.
  opts.save_extra = [&acc, saved = base.save_extra](ckpt::Writer& w) {
    w.BeginSection(kEnergySection, kEnergySectionVersion);
    acc.SaveState(w);
    w.EndSection();
    if (saved) saved(w);
  };
  if (base.resume != nullptr) {
    ckpt::Reader& r = *base.resume;
    if (!r.HasSection(kEnergySection)) {
      throw std::runtime_error(
          "ckpt: checkpoint carries no energy.accumulator section (it was "
          "written by an energy-off run); resuming it with energy "
          "accounting would silently drop the joules already attributed");
    }
    r.BeginSection(kEnergySection, kEnergySectionVersion);
    acc.RestoreState(r);
    r.EndSection();
  }
  return opts;
}

EnergyRunResult StreamScenarioWithEnergy(
    const cdn::ScenarioSpec& spec, trace::RecordSink& sink, int threads,
    const cdn::CheckpointOptions& ckpt_options) {
  EnergyRunResult out;
  cdn::SimulatorConfig config = spec.BuildConfig();
  const cdn::CheckpointOptions opts =
      AttachEnergy(out.accumulator, config, ckpt_options);
  out.sim = cdn::StreamScenario(spec, config, sink, threads, opts);
  out.report = out.accumulator.Report(EnergyModel(spec.energy));
  return out;
}

}  // namespace atlas::energy
