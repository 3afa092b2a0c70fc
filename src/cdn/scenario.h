// Running a simulation: the one module that decides how a run is set up.
//
// Both entry points below do the same four steps — draw the site's seed,
// build its generator, generate the calibrated logical budget
// (WorkloadGenerator::LogicalBudget), hand the SiteJob to RunSharded — and
// differ only in where the seed and publisher id come from:
//
//   StreamScenario  a study: every profile in order, site seeds drawn from
//                   one study seed, publisher ids assigned by a fresh
//                   registry, all sites concurrently on the sharded engine
//                   (see engine.h). The merged, time-sorted trace is the
//                   synthetic stand-in for the paper's week of CDN logs.
//   SimulateSite    one site with an explicit seed and publisher id.
//
// Records go to a trace::RecordSink and nothing else keeps them: a caller
// that wants the trace in memory passes a trace::BufferSink, one that wants
// a file passes a trace::WriterSink, and one that reads only the returned
// counters passes a trace::CountingSink. One site's records in a buffered
// study are FilterByPublisher(id) of the merged buffer.
#pragma once

#include <cstdint>
#include <vector>

#include "cdn/engine.h"
#include "cdn/simulator.h"
#include "synth/site_profile.h"
#include "trace/publisher.h"
#include "trace/sink.h"

namespace atlas::cdn {

struct ScenarioStreamResult {
  trace::PublisherRegistry registry;
  std::vector<SimulatorResult> site_results;  // in profile order
  SimulatorResult totals;
};

// Runs a study: generates each profile (site i's seed is the i-th draw of
// util::Rng(seed); its publisher id is its registry id, i.e. i), simulates
// all of them concurrently on the sharded engine, and streams the merged
// trace into `sink`. Only counters and the registry are kept — peak memory
// is the events + catalogs + caches, independent of how many records the
// simulation emits. `threads <= 0` means util::DefaultThreads(), for
// generation and simulation alike; the output is identical at any value.
// Throws std::invalid_argument if two profiles share a name.
//
// With checkpoint/restore armed, every snapshot carries, on top of the
// engine's own sections, a "scenario.meta" section (seed + profile count,
// verified on resume) and one "synth.generator.<i>" section per site with
// the generator's RNG position; the caller's save_extra (if any) still runs
// last. `ckpt_options.resume` restores the scenario and delegates engine
// state to RunSharded.
ScenarioStreamResult StreamScenario(std::vector<synth::SiteProfile> profiles,
                                    const SimulatorConfig& config,
                                    std::uint64_t seed, trace::RecordSink& sink,
                                    int threads = 0,
                                    const CheckpointOptions& ckpt_options = {});

// Runs one site: generator seeded with `seed`, records tagged with
// `publisher_id`, the time-sorted trace streamed into `sink`. Returns the
// site's counters. `threads` as for StreamScenario.
SimulatorResult SimulateSite(const synth::SiteProfile& profile,
                             std::uint32_t publisher_id,
                             const SimulatorConfig& config, std::uint64_t seed,
                             trace::RecordSink& sink, int threads = 0);

}  // namespace atlas::cdn
