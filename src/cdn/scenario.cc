#include "cdn/scenario.h"

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.h"

namespace atlas::cdn {
namespace {

// Checkpoint section layouts owned by the scenario layer.
constexpr std::uint32_t kScenarioMetaVersion = 1;
constexpr std::uint32_t kScenarioGeneratorVersion = 1;

std::string GeneratorSectionName(std::size_t i) {
  return "synth.generator." + std::to_string(i);
}

// Site names key publisher-registry entries, spec event routing, and
// analysis breakdowns; two sites sharing one is always a config bug. The
// registry would also throw, but without saying which layer misconfigured
// what — fail here with the scenario's own words.
void RejectDuplicateSiteNames(const std::vector<synth::SiteProfile>& profiles) {
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = i + 1; j < profiles.size(); ++j) {
      if (profiles[i].name == profiles[j].name) {
        throw std::invalid_argument("StreamScenario: duplicate site name '" +
                                    profiles[i].name + "'");
      }
    }
  }
}

}  // namespace

ScenarioStreamResult StreamScenario(std::vector<synth::SiteProfile> profiles,
                                    const SimulatorConfig& config,
                                    std::uint64_t seed, trace::RecordSink& sink,
                                    int threads,
                                    const CheckpointOptions& ckpt_options) {
  RejectDuplicateSiteNames(profiles);
  ScenarioStreamResult out;
  util::Rng seeder(seed);
  std::vector<std::unique_ptr<synth::WorkloadGenerator>> generators;
  std::vector<std::vector<synth::RequestEvent>> events;
  std::vector<SiteJob> jobs;
  generators.reserve(profiles.size());
  events.reserve(profiles.size());
  jobs.reserve(profiles.size());
  for (auto& profile : profiles) {
    const std::uint32_t id = out.registry.Register(profile.name, profile.kind);
    const std::uint64_t site_seed = seeder.Next();
    generators.push_back(
        std::make_unique<synth::WorkloadGenerator>(profile, site_seed));
    events.push_back(generators.back()->Generate(
        generators.back()->LogicalBudget(config.chunk_bytes), threads));
    jobs.push_back({generators.back().get(), &events.back(), id});
  }

  // Layer the scenario's own sections onto every engine snapshot: the seed
  // plan (so a resume against the wrong seed fails loud, not with a
  // fingerprint puzzle) and each generator's RNG position.
  CheckpointOptions opts = ckpt_options;
  opts.save_extra = [&](ckpt::Writer& w) {
    w.BeginSection("scenario.meta", kScenarioMetaVersion);
    w.WriteU64(seed);
    w.WriteU64(static_cast<std::uint64_t>(generators.size()));
    w.EndSection();
    for (std::size_t i = 0; i < generators.size(); ++i) {
      w.BeginSection(GeneratorSectionName(i), kScenarioGeneratorVersion);
      generators[i]->SaveState(w);
      w.EndSection();
    }
    if (ckpt_options.save_extra) ckpt_options.save_extra(w);
  };
  if (ckpt_options.resume != nullptr) {
    ckpt::Reader& r = *ckpt_options.resume;
    r.BeginSection("scenario.meta", kScenarioMetaVersion);
    const std::uint64_t saved_seed = r.ReadU64();
    const std::uint64_t saved_sites = r.ReadU64();
    r.EndSection();
    if (saved_seed != seed || saved_sites != generators.size()) {
      throw std::runtime_error(
          "ckpt: scenario mismatch (checkpoint has seed " +
          std::to_string(saved_seed) + " with " +
          std::to_string(saved_sites) + " sites, this run asks for seed " +
          std::to_string(seed) + " with " +
          std::to_string(generators.size()) + ")");
    }
    for (std::size_t i = 0; i < generators.size(); ++i) {
      r.BeginSection(GeneratorSectionName(i), kScenarioGeneratorVersion);
      generators[i]->RestoreState(r);
      r.EndSection();
    }
  }

  out.site_results = RunSharded(jobs, config, sink, threads, opts);
  for (const auto& r : out.site_results) out.totals.Merge(r);
  return out;
}

SimulatorResult SimulateSite(const synth::SiteProfile& profile,
                             std::uint32_t publisher_id,
                             const SimulatorConfig& config, std::uint64_t seed,
                             trace::RecordSink& sink, int threads) {
  synth::WorkloadGenerator gen(profile, seed);
  const auto events =
      gen.Generate(gen.LogicalBudget(config.chunk_bytes), threads);
  const SiteJob job{&gen, &events, publisher_id};
  auto results =
      RunSharded(std::span<const SiteJob>(&job, 1), config, sink, threads);
  return std::move(results.front());
}

}  // namespace atlas::cdn
