// Spec-driven scenario runs with energy accounting attached.
//
// StreamScenarioWithEnergy is cdn::StreamScenario(spec, ...) plus an
// EnergyAccumulator riding the run: the accumulator observes every epoch
// barrier, its counters join the run's checkpoints ("energy.accumulator"
// section, committed atomically with the engine and trace state), and the
// final EnergyReport is derived when the run completes. The record stream
// is byte-identical to the plain spec run — the observer hook cannot shape
// a record, and the spec fingerprint the checkpoint pins is unchanged.
#pragma once

#include "cdn/scenario_spec.h"
#include "energy/accumulator.h"

namespace atlas::energy {

struct EnergyRunResult {
  cdn::ScenarioStreamResult sim;
  EnergyAccumulator accumulator;
  EnergyReport report;
};

// Resuming requires the checkpoint to carry the "energy.accumulator"
// section — a snapshot written by a plain (energy-off) run cannot resume an
// energy run, because the joules already attributed before the kill would
// be lost silently.
EnergyRunResult StreamScenarioWithEnergy(
    const cdn::ScenarioSpec& spec, trace::RecordSink& sink, int threads = 0,
    const cdn::CheckpointOptions& ckpt_options = {});

// Low-level wiring for callers that assemble their own runs (e.g. the CLI's
// non-spec path): attaches the accumulator's observer to `config`, chains
// the "energy.accumulator" section into the returned checkpoint options,
// and — when `base.resume` is set — restores the accumulator from the
// snapshot (throwing if the section is missing). The accumulator must
// outlive the run.
cdn::CheckpointOptions AttachEnergy(EnergyAccumulator& acc,
                                    cdn::SimulatorConfig& config,
                                    const cdn::CheckpointOptions& base);

}  // namespace atlas::energy
