// One workload run: preparation, a discarded warm-up, timed reps, then an
// optional traced rep with the per-layer probes, every rep checked against
// the expected digests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pipeline.h"
#include "report.h"

namespace atlas::bench {

// Pinned FNV-1a digests, one per (workload, scale, artifact), valid at
// kGoldenSeed. Artifacts: "trace" (the v2 file a rep writes), "report" (the
// rendered report) and "input" (replay_analyze's prepared trace).
class Goldens {
 public:
  static constexpr std::uint64_t kGoldenSeed = 42;

  // Lines of `workload scale artifact 0xdigest`; '#' starts a comment.
  static Goldens Read(const std::string& path);

  std::optional<std::uint64_t> Find(const std::string& workload, double scale,
                                    const std::string& artifact) const;

 private:
  struct Entry {
    std::string workload;
    double scale = 0.0;
    std::string artifact;
    std::uint64_t digest = 0;
  };
  std::vector<Entry> entries_;
};

// Scenario files and digests.txt, relative to the repository root.
inline constexpr char kWorkloadDir[] = "benchmark/workloads";

struct RunOptions {
  std::string work_dir;  // outputs
  std::uint64_t seed = Goldens::kGoldenSeed;
  double scale = 0.0;     // > 0 overrides every spec's scale
  int threads = 1;
  double seconds = 0.0;   // > 0: timed reps until this much time has passed
  int reps = 0;           // > 0: exactly this many timed reps
  bool traced = true;     // run the traced rep and the probes
};

// A time-boxed run takes at least this many timed reps.
inline constexpr int kMinTimedReps = 3;
// Traced reps per run, each between two untraced ones.
inline constexpr int kTracedReps = 3;

struct WorkloadRun {
  WorkloadReport report;
  // Spans for --trace-json: the traced rep, replay_analyze's input run, and
  // the probes.
  Tracer rep_spans;
  Tracer input_spans;
  Tracer probe_spans;
};

WorkloadRun RunWorkload(const Workload& workload, const RunOptions& options,
                        const Goldens& goldens);

}  // namespace atlas::bench
