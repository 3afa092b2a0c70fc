// Sharded simulation engine: records/sec and peak memory per scale and per
// scenario file. atlas-bench (benchmark/) is the speed trajectory; this
// binary covers what its 15-second budget cannot reach.
//
// --scale-sweep "0.05,1.0,5.0" times, for each scale, generation
// (synth::GenerateSites under StreamScenario's seed plan: the setup
// StreamScenario runs before the engine starts) and the sharded simulation
// separately (rate + peak RSS each) and writes BENCH_scale.json (override
// with ATLAS_BENCH_SCALE_JSON). Scale 1.0 is the paper-sized study; the
// sweep is how the README's scale >= 1.0 workflow documents its memory
// envelope. Peak RSS is reset between phases via /proc/self/clear_refs where
// the kernel allows it.
//
// --spec "scenarios/a.toml,scenarios/b.toml" runs each file as a
// ScenarioSpec end to end through cdn::StreamScenario (generation +
// simulation + merge, records discarded) and writes the per-scenario rec/s
// and peak RSS to BENCH_scenario.json (override with
// ATLAS_BENCH_SCENARIO_JSON).
//
// With neither flag the binary prints its usage and exits 2.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <vector>

#include "bench_common.h"
#include "cdn/engine.h"
#include "cdn/scenario.h"
#include "cdn/scenario_spec.h"
#include "synth/site_profile.h"
#include "synth/workload.h"
#include "trace/sink.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/str.h"

namespace {

using namespace atlas;

struct PhaseSample {
  double records_per_s = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t records = 0;
};

PhaseSample MeasurePhase(const std::function<std::uint64_t()>& fn,
                         bool& rss_reset_ok) {
  rss_reset_ok = util::ResetPeakRss() && rss_reset_ok;
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t records = fn();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PhaseSample s;
  s.records = records;
  s.records_per_s =
      seconds > 0.0 ? static_cast<double>(records) / seconds : 0.0;
  s.peak_rss_bytes = util::PeakRssBytes();
  return s;
}

struct SweepPoint {
  double scale = 0.0;
  PhaseSample generate;
  PhaseSample simulate;
};

// One sweep point: set up the five-site study at `scale` and time its
// generation and the engine separately. Everything is torn down before the
// next point so peak-RSS watermarks do not bleed across scales.
SweepPoint RunSweepPoint(double scale, std::uint64_t seed, int threads,
                         bool& rss_reset_ok) {
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes =
      static_cast<std::uint64_t>(64e9 * scale) + (1ULL << 30);

  const auto profiles = synth::SiteProfile::PaperAdultSites(scale);
  util::Rng seeder(seed);  // StreamScenario's seed plan
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    seeds.push_back(seeder.Next());
  }
  std::vector<synth::SiteWorkload> sites;

  SweepPoint point;
  point.scale = scale;
  point.generate = MeasurePhase(
      [&] {
        sites = synth::GenerateSites(profiles, seeds, config.chunk_bytes,
                                     threads);
        std::uint64_t total_events = 0;
        for (const auto& site : sites) total_events += site.events.size();
        return total_events;
      },
      rss_reset_ok);
  std::vector<cdn::SiteJob> jobs;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    jobs.push_back({sites[i].generator.get(), &sites[i].events,
                    static_cast<std::uint32_t>(i)});
  }
  point.simulate = MeasurePhase(
      [&] {
        trace::CountingSink sink;
        cdn::RunSharded(jobs, config, sink, threads);
        return sink.records();
      },
      rss_reset_ok);
  return point;
}

int RunScaleSweep(const std::string& spec, std::uint64_t seed, int threads,
                  bench::BenchRunMeta meta) {
  if (threads <= 0) threads = util::DefaultThreads();
  std::vector<double> scales;
  for (const auto& field : util::Split(spec, ',')) {
    scales.push_back(util::ParseDouble(field));
  }
  bool rss_reset_ok = true;
  std::vector<SweepPoint> points;
  for (const double scale : scales) {
    points.push_back(RunSweepPoint(scale, seed, threads, rss_reset_ok));
    const auto& p = points.back();
    std::cout << "scale=" << util::FormatDouble(scale, 2) << ": generate "
              << static_cast<std::uint64_t>(p.generate.records_per_s)
              << " ev/s (peak RSS " << p.generate.peak_rss_bytes / 1024 / 1024
              << " MB), simulate "
              << static_cast<std::uint64_t>(p.simulate.records_per_s)
              << " rec/s (peak RSS " << p.simulate.peak_rss_bytes / 1024 / 1024
              << " MB), " << p.simulate.records << " records\n";
  }
  if (!rss_reset_ok) {
    std::cout << "note: peak-RSS reset unavailable; RSS columns are "
                 "process-lifetime watermarks\n";
  }

  std::string json_path = "BENCH_scale.json";
  if (const char* override_path = std::getenv("ATLAS_BENCH_SCALE_JSON")) {
    json_path = override_path;
  }
  if (json_path.empty()) return 0;
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"scale\",\n  " << bench::BenchMetaJson(meta)
      << ",\n  \"threads\": " << threads
      << ",\n  \"rss_reset_supported\": " << (rss_reset_ok ? "true" : "false")
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"scale\": " << util::FormatDouble(p.scale, 3)
        << ", \"records\": " << p.simulate.records
        << ", \"generate_events_per_s\": "
        << static_cast<std::uint64_t>(p.generate.records_per_s)
        << ", \"generate_peak_rss_bytes\": " << p.generate.peak_rss_bytes
        << ", \"simulate_records_per_s\": "
        << static_cast<std::uint64_t>(p.simulate.records_per_s)
        << ", \"simulate_peak_rss_bytes\": " << p.simulate.peak_rss_bytes
        << "}" << (i + 1 == points.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

// One timed run per scenario file: parse, then stream the whole scenario
// (generation + simulation + k-way merge) into a CountingSink. Generation
// is inside the timed region — a scenario file describes a complete run, so
// the bench reports what a user of `atlas-trace simulate --spec` actually
// pays per record.
int RunScenarioBench(const std::string& spec_list, int threads,
                     bench::BenchRunMeta meta) {
  if (threads <= 0) threads = util::DefaultThreads();
  struct ScenarioPoint {
    std::string file;
    std::string name;
    PhaseSample run;
  };
  bool rss_reset_ok = true;
  std::vector<ScenarioPoint> points;
  for (const auto& field : util::Split(spec_list, ',')) {
    const std::string path(field);
    const auto spec = cdn::ScenarioSpec::ParseFile(path);
    ScenarioPoint point;
    point.file = path;
    point.name = spec.name;
    point.run = MeasurePhase(
        [&] {
          trace::CountingSink sink;
          cdn::StreamScenario(spec, sink, threads);
          return sink.records();
        },
        rss_reset_ok);
    std::cout << spec.name << ": "
              << static_cast<std::uint64_t>(point.run.records_per_s)
              << " rec/s, peak RSS " << point.run.peak_rss_bytes / 1024 / 1024
              << " MB, " << point.run.records << " records\n";
    points.push_back(std::move(point));
  }
  if (!rss_reset_ok) {
    std::cout << "note: peak-RSS reset unavailable; RSS columns are "
                 "process-lifetime watermarks\n";
  }

  std::string json_path = "BENCH_scenario.json";
  if (const char* override_path = std::getenv("ATLAS_BENCH_SCENARIO_JSON")) {
    json_path = override_path;
  }
  if (json_path.empty()) return 0;
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  meta.scenario = spec_list;
  out << "{\n  \"bench\": \"scenario\",\n  " << bench::BenchMetaJson(meta)
      << ",\n  \"threads\": " << threads
      << ",\n  \"rss_reset_supported\": " << (rss_reset_ok ? "true" : "false")
      << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"file\": \"" << p.file << "\", \"name\": \"" << p.name
        << "\", \"records\": " << p.run.records << ", \"records_per_s\": "
        << static_cast<std::uint64_t>(p.run.records_per_s)
        << ", \"peak_rss_bytes\": " << p.run.peak_rss_bytes << "}"
        << (i + 1 == points.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::AblationEnv env;
  env.flags.DefineString(
      "scale-sweep", "",
      "comma-separated scales (e.g. 0.05,1.0,5.0): run the scale sweep "
      "(setup + simulation rate and peak RSS per scale) and write "
      "BENCH_scale.json");
  env.flags.DefineString(
      "spec", "",
      "comma-separated scenario files: run each declarative scenario end to "
      "end and write BENCH_scenario.json");
  // No --scale: the sweep names its scales and each spec file pins its own.
  if (!bench::SetUpUnscaledBench(
          env, argc, argv,
          "Sharded simulation engine throughput per scale or scenario")) {
    return 0;
  }
  const int threads = static_cast<int>(env.flags.GetInt("threads"));
  bench::BenchRunMeta meta;  // scale 0: each result row carries its own
  meta.threads = threads;
  const std::string sweep = env.flags.GetString("scale-sweep");
  if (!sweep.empty()) return RunScaleSweep(sweep, env.seed, threads, meta);
  const std::string spec_list = env.flags.GetString("spec");
  if (!spec_list.empty()) return RunScenarioBench(spec_list, threads, meta);
  std::cerr << "sim_bench: pass --scale-sweep or --spec\n\n"
            << env.flags.Usage(argv[0]);
  return 2;
}
