// The benchmark's workloads and the pipeline runs behind them.
//
// Every rep goes through the entry points a user's run takes:
// `atlas-trace simulate --spec` is cdn::StreamScenario(spec, config, sink,
// threads, ckpt) into a trace::TraceWriter, and `atlas-trace analyze` is
// TraceFileReader::NextBlock -> StreamingAnalysis::AddBlock -> Finalize ->
// AnalysisSuite::Render. The benchmark observes them only from outside,
// through hooks it owns: a RecordSink wrapper, the fingerprint-excluded
// epoch_observer, and CheckpointOptions::after_save.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/scenario_spec.h"
#include "cdn/simulator.h"
#include "tracer.h"

namespace atlas::bench {

enum class Kind { kPaperWeek, kSimWeek, kReplayAnalyze, kDurableWeek };

struct Workload {
  std::string_view name;
  Kind kind;
  std::string_view spec;  // scenario file in the workloads directory
  int reps;               // timed reps of a fixed-count run
};

// paper_week, sim_week, replay_analyze, durable_week, in that order.
const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(std::string_view name);

// durable_week snapshots every kCheckpointEvery barriers and is killed in
// process right after the snapshot at barrier kKillAfterBarrier.
inline constexpr std::uint64_t kCheckpointEvery = 12;
inline constexpr std::uint64_t kKillAfterBarrier = 84;

struct RunConfig {
  std::string spec_path;
  std::uint64_t seed = 42;  // overrides the spec's seed
  double scale = 0.0;       // overrides the spec's scale when > 0
  int threads = 1;
  std::string dir;  // where outputs are written; must exist
};

// One rep's measurements and the outputs its correctness is judged by.
struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;  // rep start -> first record at the sink or first
                         // block decoded
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  double recovery_s = 0.0;  // durable_week: checkpoint read -> first barrier
  std::uint64_t records = 0;  // produced, or analyzed by replay_analyze
  std::uint64_t trace_digest = 0;   // FNV-1a of the v2 file produced
  std::uint64_t report_digest = 0;  // FNV-1a of the rendered report
  std::vector<std::string> problems;  // failed checks; empty when correct

  // Facts for the per-layer metrics, kept from every rep.
  cdn::SimulatorResult totals;
  std::uint64_t trace_bytes = 0;
  std::vector<std::size_t> clustered_objects;  // one per trend panel
  std::vector<std::uint64_t> snapshot_bytes;   // traced reps only
};

// Second pass over a produced trace: records and blocks decoded.
struct ReadBack {
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
};

// Per-layer probes: the scenario's own generation and engine, called
// directly with the scenario's seeds, at the run's thread count and at one.
struct Probes {
  double synth_setup_s = 0.0;
  double synth_generate_s = 0.0;
  double synth_generate_1t_s = 0.0;
  std::uint64_t events = 0;
  double cdn_run_s = 0.0;
  double cdn_run_1t_s = 0.0;
  std::uint64_t cdn_records = 0;
};

class Pipeline {
 public:
  Pipeline(const Workload& workload, RunConfig config);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  // The scenario the reps run, with the seed and scale overrides applied.
  const cdn::ScenarioSpec& spec() const { return spec_; }

  // replay_analyze's input: the spec simulated once into a v2 file that
  // every rep then analyzes. Untimed by the caller.
  Rep PrepareInput(Tracer* tracer);
  // An uninterrupted simulate of the spec: durable_week's warm-up, whose
  // trace digest the killed-and-resumed reps must reproduce.
  Rep RunUninterrupted();
  // One rep; `tracer` null runs untraced. Outputs stay on disk until the
  // next rep starts (or the pipeline is destroyed), outside the timed region.
  Rep Run(Tracer* tracer);
  // Reads the last rep's trace back block by block.
  ReadBack ReadBackTrace(Tracer& tracer) const;
  Probes RunProbes(Tracer& tracer) const;

 private:
  // Parses the spec file and applies the overrides, as the CLI does; traced
  // as spec.parse.
  cdn::ScenarioSpec LoadSpec(Tracer* tracer) const;
  void RemoveOutputs() const;
  // Removes the outputs, then times body(start, rep): wall, CPU and peak
  // RSS of the whole call.
  template <typename Body>
  Rep Measure(Body&& body);
  void DigestTrace(const std::string& path, Rep& rep) const;
  void Simulate(const std::string& path, Clock::time_point start,
                Tracer* tracer, Rep& rep);
  void SimulateDurable(Clock::time_point start, Tracer* tracer, Rep& rep);
  std::string Analyze(const std::string& path, bool trends,
                      Clock::time_point start, Tracer* tracer, Rep& rep);

  const Workload& workload_;
  RunConfig config_;
  cdn::ScenarioSpec spec_;
  std::string trace_path_;
  std::string ckpt_path_;
  std::string input_path_;
  std::uint64_t input_records_ = 0;  // records in the prepared input
};

}  // namespace atlas::bench
