// Scenario: the paper's whole five-site study as one object.
//
// Runs every site profile through its own generator and the shared sharded
// simulation engine (all sites concurrently — see engine.h), tags records
// with registry publisher ids, and exposes both the per-site results (with
// ground-truth generators for closed-loop validation) and the merged,
// time-sorted trace — the synthetic stand-in for the paper's week of CDN
// logs. The merged trace is served as a stream (StreamMerged /
// MergedTraceSource): the per-site buffers are k-way merged on the fly, so
// no call site pays an O(total records) combined copy.
//
// StreamScenario is the fully out-of-core variant: the merged trace goes
// straight into a RecordSink (e.g. a v2 TraceWriter) and is never
// materialized at all.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/engine.h"
#include "cdn/simulator.h"
#include "synth/site_profile.h"
#include "trace/block.h"
#include "trace/publisher.h"
#include "trace/stream.h"

namespace atlas::cdn {

class ScenarioSpec;

struct SiteRun {
  synth::SiteProfile profile;
  std::uint32_t publisher_id = 0;
  // Kept alive so analyses can compare against generator ground truth.
  std::unique_ptr<synth::WorkloadGenerator> generator;
  SiteSimulation result;
};

class Scenario {
 public:
  // `scale` shrinks every profile (1.0 = paper-sized). Each site draws its
  // own deterministic seed from `seed`. `threads <= 0` means
  // util::DefaultThreads(); every result is identical at any thread count.
  Scenario(std::vector<synth::SiteProfile> profiles,
           const SimulatorConfig& config, std::uint64_t seed,
           int threads = 0);

  // Spec-driven construction: profiles, config, and seed all come from the
  // spec (see scenario_spec.h). Defined in scenario_spec.cc.
  explicit Scenario(const ScenarioSpec& spec, int threads = 0);

  // Convenience: the paper's five adult sites.
  static Scenario PaperStudy(double scale, const SimulatorConfig& config,
                             std::uint64_t seed, int threads = 0);

  const trace::PublisherRegistry& registry() const { return registry_; }
  const std::vector<SiteRun>& runs() const { return runs_; }
  const SiteRun& run(std::size_t i) const { return runs_.at(i); }
  std::size_t site_count() const { return runs_.size(); }

  // Streams the merged, time-sorted trace across all sites into `sink`
  // without building a combined copy (per-site traces are k-way merged on
  // the fly, ties broken by site registration order — byte-identical to
  // the legacy materialized merge).
  void StreamMerged(trace::RecordSink& sink) const;

  // Merged delivery counters across all sites.
  SimulatorResult Totals() const;

 private:
  trace::PublisherRegistry registry_;
  std::vector<SiteRun> runs_;
};

// Pull-interface view of a scenario's merged trace: yields the k-way merge
// of the per-site traces block by block, so AnalysisSuite and Replay-style
// consumers read the merged stream through one block of memory. The
// scenario must outlive the source.
class MergedTraceSource final : public trace::BlockSource {
 public:
  explicit MergedTraceSource(const Scenario& scenario);
  const trace::RecordBlock* NextBlock() override;

 private:
  struct Cursor {
    const trace::TraceBuffer* buf;
    std::size_t pos = 0;
  };
  std::vector<Cursor> cursors_;
  trace::RecordBlock block_;
};

struct ScenarioStreamResult {
  trace::PublisherRegistry registry;
  std::vector<SimulatorResult> site_results;  // in profile order
  SimulatorResult totals;
};

// Fully streaming scenario run: generates each profile, simulates all of
// them concurrently on the sharded engine, and streams the merged trace
// into `sink`. Only counters and the registry are kept — peak memory is
// the events + catalogs + caches, independent of how many records the
// simulation emits. `threads <= 0` means util::DefaultThreads(), for
// generation and simulation alike.
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

}  // namespace atlas::cdn
