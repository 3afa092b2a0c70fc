// Sharded simulation engine: throughput and peak memory vs. thread count.
//
// Generates the five-site study workload once, then runs the sharded
// engine (cdn::StreamScenario-equivalent core via RunSharded) over the same
// pre-generated events at 1, 2, and 8 worker threads, plus a sequential
// baseline that simulates the sites one after another — the pre-sharding
// architecture. Records are discarded through a CountingSink so the numbers
// measure the engine, not a sink. Every configuration emits byte-identical
// traces (see tests/engine_test.cc); only the wall clock moves.
//
// Results land in BENCH_sim.json (override the path with
// ATLAS_BENCH_SIM_JSON; set it empty to skip). Peak RSS is reset between
// phases via /proc/self/clear_refs where the kernel allows it.
//
// --scale-sweep "0.05,1.0,5.0" switches to the scale-hardening sweep
// instead: for each scale it times workload generation and the sharded
// simulation separately (rec/s + peak RSS each) and writes
// BENCH_scale.json (override with ATLAS_BENCH_SCALE_JSON). Scale 1.0 is
// the paper-sized study; the sweep is how the README's scale >= 1.0
// workflow documents its memory envelope.
//
// --spec "scenarios/a.toml,scenarios/b.toml" switches to the scenario
// bench instead: each file is parsed as a ScenarioSpec and run end to end
// through cdn::StreamScenario (generation + simulation + merge, records
// discarded) and the per-scenario rec/s and peak RSS land in
// BENCH_scenario.json (override with ATLAS_BENCH_SCENARIO_JSON).
#include <algorithm>
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

// One sweep point: build the five-site study at `scale` and time the
// generator and the engine separately. Everything is torn down before the
// next point so peak-RSS watermarks do not bleed across scales.
SweepPoint RunSweepPoint(double scale, std::uint64_t seed, int threads,
                         bool& rss_reset_ok) {
  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes =
      static_cast<std::uint64_t>(64e9 * scale) + (1ULL << 30);

  auto profiles = synth::SiteProfile::PaperAdultSites(scale);
  util::Rng seeder(seed);
  std::vector<std::unique_ptr<synth::WorkloadGenerator>> generators;
  std::vector<std::vector<synth::RequestEvent>> events;
  std::vector<cdn::SiteJob> jobs;
  // jobs holds pointers into `events`; reserve so growth never reallocates.
  generators.reserve(profiles.size());
  events.reserve(profiles.size());
  jobs.reserve(profiles.size());

  SweepPoint point;
  point.scale = scale;
  point.generate = MeasurePhase(
      [&] {
        std::uint64_t total_events = 0;
        for (std::size_t i = 0; i < profiles.size(); ++i) {
          const auto& profile = profiles[i];
          const std::uint64_t site_seed = seeder.Next();
          generators.push_back(
              std::make_unique<synth::WorkloadGenerator>(profile, site_seed));
          events.push_back(generators.back()->Generate(
              generators.back()->LogicalBudget(config.chunk_bytes)));
          total_events += events.back().size();
          jobs.push_back({generators.back().get(), &events.back(),
                          static_cast<std::uint32_t>(i)});
        }
        return total_events;
      },
      rss_reset_ok);
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
  meta.scale = 0.0;  // each result row carries its own scale
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
// (generation + simulation + k-way merge) into a CountingSink. Unlike the
// thread bench above, generation is inside the timed region — a scenario
// file describes a complete run, so the bench reports what a user of
// `atlas-trace simulate --spec` actually pays per record.
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
  meta.scale = 0.0;  // each scenario file pins its own scale
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
      "(generation + simulation rec/s and peak RSS per scale) and write "
      "BENCH_scale.json instead of the thread-count bench");
  env.flags.DefineString(
      "spec", "",
      "comma-separated scenario files: run each declarative scenario end to "
      "end and write BENCH_scenario.json instead of the thread-count bench");
  if (!bench::SetUpAblation(
          env, argc, argv,
          "Sharded simulation engine throughput vs. thread count")) {
    return 0;
  }
  const auto meta = bench::MetaFromFlags(env.flags, "paper_study");
  const std::string sweep = env.flags.GetString("scale-sweep");
  if (!sweep.empty()) {
    return RunScaleSweep(sweep, env.seed,
                         static_cast<int>(env.flags.GetInt("threads")), meta);
  }
  const std::string spec_list = env.flags.GetString("spec");
  if (!spec_list.empty()) {
    return RunScenarioBench(
        spec_list, static_cast<int>(env.flags.GetInt("threads")), meta);
  }

  cdn::SimulatorConfig config;
  config.topology.edge_capacity_bytes =
      static_cast<std::uint64_t>(64e9 * env.scale) + (1ULL << 30);

  // Generate the workload once, outside every timed region: the bench
  // measures the simulation engine, not the generator.
  auto profiles = synth::SiteProfile::PaperAdultSites(env.scale);
  util::Rng seeder(env.seed);
  std::vector<std::unique_ptr<synth::WorkloadGenerator>> generators;
  std::vector<std::vector<synth::RequestEvent>> events;
  std::vector<cdn::SiteJob> jobs;
  generators.reserve(profiles.size());
  events.reserve(profiles.size());
  jobs.reserve(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& profile = profiles[i];
    const std::uint64_t site_seed = seeder.Next();
    generators.push_back(
        std::make_unique<synth::WorkloadGenerator>(profile, site_seed));
    events.push_back(generators.back()->Generate(
        generators.back()->LogicalBudget(config.chunk_bytes)));
    jobs.push_back({generators.back().get(), &events.back(),
                    static_cast<std::uint32_t>(i)});
  }

  bool rss_reset_ok = true;

  // Sequential baseline: each site simulated on its own, one thread — the
  // pre-sharding architecture (per-site work was already concurrent before,
  // so the honest baseline is the single-threaded engine per site).
  const PhaseSample sequential = MeasurePhase(
      [&] {
        std::uint64_t total = 0;
        for (const auto& job : jobs) {
          trace::CountingSink sink;
          cdn::RunSharded({&job, 1}, config, sink, /*threads=*/1);
          total += sink.records();
        }
        return total;
      },
      rss_reset_ok);

  std::vector<std::pair<int, PhaseSample>> threaded;
  for (int threads : {1, 2, 8}) {
    threaded.emplace_back(
        threads, MeasurePhase(
                     [&] {
                       trace::CountingSink sink;
                       cdn::RunSharded(jobs, config, sink, threads);
                       return sink.records();
                     },
                     rss_reset_ok));
  }

  std::cout << "records: " << sequential.records << "\n"
            << "sequential:  "
            << static_cast<std::uint64_t>(sequential.records_per_s)
            << " rec/s, peak RSS " << sequential.peak_rss_bytes / 1024 / 1024
            << " MB\n";
  for (const auto& [threads, s] : threaded) {
    std::cout << "threads=" << threads << (threads < 10 ? ":   " : ":  ")
              << static_cast<std::uint64_t>(s.records_per_s)
              << " rec/s, peak RSS " << s.peak_rss_bytes / 1024 / 1024
              << " MB (" << util::FormatDouble(
                     sequential.records_per_s > 0.0
                         ? s.records_per_s / sequential.records_per_s
                         : 0.0,
                     2)
              << "x sequential)\n";
  }
  if (!rss_reset_ok) {
    std::cout << "note: peak-RSS reset unavailable; RSS columns are "
                 "process-lifetime watermarks\n";
  }

  std::string json_path = "BENCH_sim.json";
  if (const char* override_path = std::getenv("ATLAS_BENCH_SIM_JSON")) {
    json_path = override_path;
  }
  if (json_path.empty()) return 0;
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"sim\",\n  " << bench::BenchMetaJson(meta)
      << ",\n  \"records\": " << sequential.records
      << ",\n  \"scale\": " << env.scale
      << ",\n  \"rss_reset_supported\": " << (rss_reset_ok ? "true" : "false")
      << ",\n  \"results\": {\n";
  const auto append = [&](const std::string& name, const PhaseSample& s,
                          bool last) {
    out << "    \"" << name << "\": {\"records_per_s\": "
        << static_cast<std::uint64_t>(s.records_per_s)
        << ", \"peak_rss_bytes\": " << s.peak_rss_bytes << "}"
        << (last ? "\n" : ",\n");
  };
  append("sequential", sequential, false);
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    append("threads_" + std::to_string(threaded[i].first), threaded[i].second,
           i + 1 == threaded.size());
  }
  out << "  }\n}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
