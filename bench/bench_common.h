// Shared scaffolding for the figure-regeneration benches.
//
// Every fig* binary accepts the same flags (--scale, --seed, --capacity-gb,
// --policy, --csv) and regenerates one paper figure from a fresh synthetic
// five-site study. --scale 1.0 reproduces the paper-sized populations;
// the default keeps each bench under a few seconds.
#pragma once

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/report.h"
#include "cdn/scenario.h"
#include "synth/site_profile.h"
#include "trace/sink.h"
#include "trace/trace_buffer.h"
#include "trace/trace_io.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/par.h"

namespace atlas::bench {

struct BenchEnv {
  util::Flags flags;
  double scale = 0.1;
  std::uint64_t seed = 42;
  cdn::SimulatorConfig config;
  // The study's merged, time-sorted trace, and the registry and per-site
  // counters StreamScenario returned with it.
  trace::TraceBuffer trace;
  cdn::ScenarioStreamResult study;

  const trace::PublisherRegistry& registry() const { return study.registry; }

  // One site's records in stream order; throws for a name the study lacks.
  trace::TraceBuffer SiteTrace(const std::string& name) const {
    return trace.FilterByPublisher(registry().FindByName(name).value());
  }
};

inline cdn::PolicyKind PolicyFromName(const std::string& name) {
  for (int k = 0; k < cdn::kNumPolicyKinds; ++k) {
    const auto kind = static_cast<cdn::PolicyKind>(k);
    if (name == cdn::ToString(kind)) return kind;
  }
  throw std::invalid_argument("unknown cache policy: " + name +
                              " (use LRU, FIFO, LFU, GDSF, S4LRU, TTL-LRU)");
}

// Parses flags and runs the five-site study. Returns false (after printing
// usage) if --help was requested. Extra flags can be defined on env.flags
// before calling.
inline bool SetUpStudy(BenchEnv& env, int argc, char** argv,
                       const char* description) {
  env.flags.DefineDouble("scale", 0.1,
                         "population scale in (0, 16]; 1.0 is the paper-sized "
                         "study, >1 extrapolates past it");
  env.flags.DefineInt("seed", 42, "RNG seed");
  env.flags.DefineDouble("capacity-gb", 0.0,
                         "edge cache capacity per DC in GB (0 = auto-scale)");
  env.flags.DefineString("policy", "LRU", "edge cache policy");
  env.flags.DefineInt("threads", 0,
                      "worker threads (0 = hardware concurrency); results "
                      "are identical at any value");
  try {
    env.flags.Parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << env.flags.Usage(argv[0]);
    std::exit(1);
  }
  if (env.flags.help_requested()) {
    std::cout << description << "\n\n" << env.flags.Usage(argv[0]);
    return false;
  }
  util::SetLogLevel(util::LogLevel::kWarn);
  util::SetDefaultThreads(static_cast<int>(env.flags.GetInt("threads")));
  env.scale = env.flags.GetDouble("scale");
  env.seed = static_cast<std::uint64_t>(env.flags.GetInt("seed"));
  env.config.topology.edge_policy =
      PolicyFromName(env.flags.GetString("policy"));
  const double capacity_gb = env.flags.GetDouble("capacity-gb");
  env.config.topology.edge_capacity_bytes =
      capacity_gb > 0.0
          ? static_cast<std::uint64_t>(capacity_gb * 1e9)
          : static_cast<std::uint64_t>(64e9 * env.scale) + (1ULL << 30);
  trace::BufferSink sink(env.trace);
  env.study = cdn::StreamScenario(
      synth::SiteProfile::PaperAdultSites(env.scale), env.config, env.seed,
      sink);
  return true;
}

// Shared flag scaffolding for the ablation benches: --scale / --seed /
// --threads parsing, log level, and the worker-thread default in one place.
// Unlike SetUpStudy this does not run a scenario — each ablation builds its
// own sweep of configs. Extra flags can be defined on env.flags before the
// call. Returns false (after printing usage) if --help was requested.
struct AblationEnv {
  util::Flags flags;
  double scale = 0.05;
  std::uint64_t seed = 42;
};

// SetUpAblation without --scale, for a bench whose runs each carry their
// own scale.
inline bool SetUpUnscaledBench(AblationEnv& env, int argc, char** argv,
                               const char* description) {
  env.flags.DefineInt("seed", 42, "RNG seed");
  env.flags.DefineInt("threads", 0,
                      "worker threads (0 = hardware concurrency); results "
                      "are identical at any value");
  try {
    env.flags.Parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << env.flags.Usage(argv[0]);
    std::exit(1);
  }
  if (env.flags.help_requested()) {
    std::cout << description << "\n\n" << env.flags.Usage(argv[0]);
    return false;
  }
  util::SetLogLevel(util::LogLevel::kWarn);
  util::SetDefaultThreads(static_cast<int>(env.flags.GetInt("threads")));
  env.seed = static_cast<std::uint64_t>(env.flags.GetInt("seed"));
  return true;
}

inline bool SetUpAblation(AblationEnv& env, int argc, char** argv,
                          const char* description) {
  env.flags.DefineDouble("scale", 0.05,
                         "population scale in (0, 16]; 1.0 is the paper-sized "
                         "study, >1 extrapolates past it");
  if (!SetUpUnscaledBench(env, argc, argv, description)) return false;
  env.scale = env.flags.GetDouble("scale");
  return true;
}

// Run metadata stamped into every BENCH_*.json (the "meta" object) so a
// number in the perf trajectory is attributable without replaying the run:
// which scenario/workload produced it, at what population scale, under
// which --threads flag (0 = hardware concurrency), and with what synth
// table budget in force. A scale of 0 means the file's result rows carry
// their own scales (sweep-style benches).
struct BenchRunMeta {
  std::string scenario = "paper_study";
  double scale = 0.0;
  int threads = 0;
  std::uint64_t synth_budget_bytes =
      synth::SiteProfile{}.synth_table_budget_bytes;
};

// The `"meta": {...}` fragment (no surrounding comma/newline) for the
// handwritten JSON writers.
inline std::string BenchMetaJson(const BenchRunMeta& meta) {
  std::ostringstream os;
  os << "\"meta\": {\"scenario\": \"" << meta.scenario
     << "\", \"scale\": " << meta.scale << ", \"threads\": " << meta.threads
     << ", \"synth_budget_bytes\": " << meta.synth_budget_bytes << "}";
  return os.str();
}

// Meta pre-filled from the shared --scale/--threads flags.
inline BenchRunMeta MetaFromFlags(const util::Flags& flags,
                                  const std::string& scenario) {
  BenchRunMeta meta;
  meta.scenario = scenario;
  meta.scale = flags.GetDouble("scale");
  meta.threads = static_cast<int>(flags.GetInt("threads"));
  return meta;
}

// Collects one analysis result per site, in paper order.
template <typename Result, typename Fn>
std::vector<Result> PerSite(const BenchEnv& env, Fn&& compute) {
  std::vector<Result> results;
  for (const auto& site : env.registry().all()) {
    results.push_back(compute(env.trace.FilterByPublisher(site.id), site.name));
  }
  return results;
}

// The view the multi-site Render* functions take: one pointer per result,
// in order. `results` must outlive it.
template <typename Result>
std::vector<const Result*> View(const std::vector<Result>& results) {
  std::vector<const Result*> view;
  view.reserve(results.size());
  for (const auto& r : results) view.push_back(&r);
  return view;
}

}  // namespace atlas::bench
