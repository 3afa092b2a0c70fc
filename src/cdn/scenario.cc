#include "cdn/scenario.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "cdn/engine.h"
#include "util/rng.h"

namespace atlas::cdn {
namespace {

// Routes each merged record back to its site's buffer. Records arrive in
// merged order, and the merged order restricted to one site is that site's
// own time-sorted order, so the per-site buffers come out exactly as the
// legacy per-site simulations produced them.
class DemuxSink final : public trace::RecordSink {
 public:
  explicit DemuxSink(std::vector<SiteRun>& runs) {
    for (auto& run : runs) {
      by_publisher_.emplace(run.publisher_id, &run.result.trace);
    }
  }

  void Write(std::span<const trace::LogRecord> records) override {
    for (const auto& rec : records) {
      by_publisher_.at(rec.publisher_id)->Add(rec);
    }
  }

 private:
  std::unordered_map<std::uint32_t, trace::TraceBuffer*> by_publisher_;
};

std::uint64_t LogicalBudget(const synth::WorkloadGenerator& gen,
                            const synth::SiteProfile& profile,
                            const SimulatorConfig& config) {
  const double inflation = gen.EstimateRecordsPerRequest(config.chunk_bytes);
  return static_cast<std::uint64_t>(std::max(
      1.0, static_cast<double>(profile.total_requests) / inflation));
}

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
        throw std::invalid_argument("Scenario: duplicate site name '" +
                                    profiles[i].name + "'");
      }
    }
  }
}

}  // namespace

Scenario::Scenario(std::vector<synth::SiteProfile> profiles,
                   const SimulatorConfig& config, std::uint64_t seed,
                   int threads) {
  RejectDuplicateSiteNames(profiles);
  util::Rng seeder(seed);
  std::vector<std::vector<synth::RequestEvent>> events;
  events.reserve(profiles.size());
  for (auto& profile : profiles) {
    const std::uint32_t id = registry_.Register(profile.name, profile.kind);
    SiteRun run;
    run.profile = profile;
    run.publisher_id = id;
    const std::uint64_t site_seed = seeder.Next();
    run.generator =
        std::make_unique<synth::WorkloadGenerator>(profile, site_seed);
    events.push_back(run.generator->Generate(
        LogicalBudget(*run.generator, profile, config), threads));
    run.result.trace.Reserve(events.back().size() + events.back().size() / 2);
    runs_.push_back(std::move(run));
  }

  std::vector<SiteJob> jobs;
  jobs.reserve(runs_.size());
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    jobs.push_back(
        {runs_[i].generator.get(), &events[i], runs_[i].publisher_id});
  }
  DemuxSink sink(runs_);
  auto results = RunSharded(jobs, config, sink, threads);
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    static_cast<SimulatorResult&>(runs_[i].result) = std::move(results[i]);
  }
}

Scenario Scenario::PaperStudy(double scale, const SimulatorConfig& config,
                              std::uint64_t seed, int threads) {
  return Scenario(synth::SiteProfile::PaperAdultSites(scale), config, seed,
                  threads);
}

void Scenario::StreamMerged(trace::RecordSink& sink) const {
  MergedTraceSource source(*this);
  std::vector<trace::LogRecord> records;
  for (const auto* block = source.NextBlock(); block != nullptr;
       block = source.NextBlock()) {
    records.clear();
    for (std::size_t i = 0; i < block->size(); ++i) {
      records.push_back(block->Row(i));
    }
    sink.Write(records);
  }
}

SimulatorResult Scenario::Totals() const {
  SimulatorResult totals;
  for (const auto& run : runs_) totals.Merge(run.result);
  return totals;
}

MergedTraceSource::MergedTraceSource(const Scenario& scenario) {
  cursors_.reserve(scenario.site_count());
  for (const auto& run : scenario.runs()) {
    cursors_.push_back({&run.result.trace, 0});
  }
  block_.reserve(trace::kDefaultBlockRecords);
}

const trace::RecordBlock* MergedTraceSource::NextBlock() {
  block_.clear();
  while (block_.size() < trace::kDefaultBlockRecords) {
    // Pick the earliest record; ties go to the lowest site index, matching
    // the stable concatenate-then-sort order of the legacy merge.
    const trace::LogRecord* best = nullptr;
    std::size_t best_site = 0;
    for (std::size_t s = 0; s < cursors_.size(); ++s) {
      const Cursor& cur = cursors_[s];
      if (cur.pos >= cur.buf->size()) continue;
      const trace::LogRecord& rec = cur.buf->records()[cur.pos];
      if (best == nullptr || rec.timestamp_ms < best->timestamp_ms) {
        best = &rec;
        best_site = s;
      }
    }
    if (best == nullptr) break;
    block_.PushBack(*best);
    ++cursors_[best_site].pos;
  }
  return block_.empty() ? nullptr : &block_;
}

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
        LogicalBudget(*generators.back(), profile, config), threads));
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

}  // namespace atlas::cdn
