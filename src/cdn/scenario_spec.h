// ScenarioSpec: the scenario layer as data.
//
// A scenario file is a TOML description of everything a run needs — which
// site profiles to instantiate (base factory + curated overrides), the
// simulator/topology configuration, and a timeline of operational events
// (flash crowds, takedowns, DC outages, cache flushes). The spec replaces
// the hardcoded five-site profile list: StreamScenario accepts a spec
// directly, the CLI runs any spec file end-to-end, and every shipped spec
// under scenarios/ carries its own pinned golden digest.
//
// Parsing is loud: unknown keys, wrong types, out-of-range values, and
// overlapping event windows all fail with the file's line and column —
// a typo in a scenario file must never silently fall back to a default.
//
// Identity: CanonicalToml() renders the spec in one fixed, explicit form
// (every simulator knob spelled out, keys in schema order), and
// Fingerprint() is the FNV-1a of those bytes. The fingerprint rides in
// every checkpoint a spec-driven run writes ("scenario.spec" section), so
// resuming against an edited spec fails before any state is spliced.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/scenario.h"
#include "cdn/simulator.h"
#include "synth/site_profile.h"

namespace atlas::cdn {

// One site: a named base profile plus curated overrides. Overrides are
// absolute values applied after the base factory ran at the spec's scale.
struct SiteSpec {
  // Base factory: "V-1", "V-2", "P-1", "P-2", "S-1", "N-1", or "L-1".
  std::string profile;
  // Effective site name; defaults to the base profile's name.
  std::string name;
  std::optional<std::uint64_t> total_requests;
  std::optional<std::uint64_t> num_objects;
  std::optional<std::uint64_t> num_users;
  std::optional<double> zipf_s;
  std::optional<double> repeat_request_prob;
  std::optional<double> incognito_rate;
  std::optional<double> peak_local_hour;
  std::optional<double> diurnal_amplitude;
  std::optional<double> watch_fraction_mean;
};

// Parameters of the per-DC energy & dollar-cost model ([energy] table).
// Plain data by design: the cdn layer owns parsing/validation/canonical
// form, while the math that turns counters into joules lives one layer up
// in atlas::energy (energy includes cdn, never the reverse). Defaults are
// paper-plausible CDN numbers; every shipped scenario documents them in a
// commented [energy] block.
struct EnergySpec {
  // Server power per DC: idle floor plus a busy delta scaled by duty
  // cycle, where duty = bytes served / (egress capacity * wall span).
  double server_idle_watts = 150.0;
  double server_busy_watts = 350.0;
  double server_capacity_gbps = 10.0;
  // Storage power for cache-resident bytes (10 W per resident TB).
  double storage_watts_per_gb = 0.01;
  // Network energy per GB moved, tiered by delivery path.
  double edge_hit_j_per_gb = 25000.0;
  double peer_fill_j_per_gb = 60000.0;
  double origin_fetch_j_per_gb = 140000.0;
  double push_j_per_gb = 60000.0;
  // Dollar costs: electricity for the joules above, transit per GB by
  // tier (edge hits stay inside the DC and are free).
  double electricity_usd_per_kwh = 0.11;
  double edge_hit_usd_per_gb = 0.0;
  double peer_fill_usd_per_gb = 0.02;
  double origin_fetch_usd_per_gb = 0.08;
  double push_usd_per_gb = 0.02;
};

// One timeline entry. Demand-side kinds (flash-crowd, takedown) target one
// site's catalog; delivery-side kinds (dc-outage, cache-flush) target DCs.
enum class SpecEventKind : std::uint8_t {
  kFlashCrowd = 0,
  kTakedown = 1,
  kDcOutage = 2,
  kCacheFlush = 3,
};
const char* ToString(SpecEventKind k);

struct EventSpec {
  SpecEventKind kind = SpecEventKind::kFlashCrowd;
  // Demand events: the target site's effective name.
  std::string site;
  // Window in hours from trace start; flushes fire at start_hours and
  // ignore end_hours.
  double start_hours = 0.0;
  double end_hours = 0.0;
  // Demand events: target object (catalog index).
  std::int64_t object = 0;
  // Flash crowd: probability an in-window request redirects to the target.
  double share = 0.5;
  // Delivery events: target DC index; -1 = every DC (flush only).
  std::int64_t dc = 0;
};

class ScenarioSpec {
 public:
  std::string name;
  std::string description;
  double scale = 1.0;
  std::uint64_t seed = 42;
  std::vector<SiteSpec> sites;
  std::vector<EventSpec> events;
  // Effective simulator configuration, minus op_events (those come from
  // `events` via BuildConfig). Defaults match SimulatorConfig's.
  SimulatorConfig sim;
  // Energy/cost model parameters ([energy] table; defaults when absent).
  EnergySpec energy;

  // Parses + validates; throws util::config::ConfigError with line/column
  // on any defect. `source` names the input in errors.
  static ScenarioSpec Parse(std::string_view text, const std::string& source);
  static ScenarioSpec ParseFile(const std::string& path);

  // Structural validation of the in-memory spec (also called by Parse);
  // throws std::invalid_argument. Covers everything that can go wrong
  // after programmatic edits (e.g. CLI --scale/--seed overrides).
  void Validate() const;

  // The one fixed, explicit rendering of this spec. Parse(CanonicalToml())
  // reproduces the spec exactly (round-trip identity), and two specs are
  // equivalent iff their canonical forms are byte-equal.
  std::string CanonicalToml() const;

  // FNV-1a of CanonicalToml(); the spec's checkpoint identity.
  std::uint64_t Fingerprint() const;

  // Materializes the site profiles (base factory at `scale`, overrides,
  // demand events routed to their sites) and the simulator config
  // (sim + op_events). Both validate what they build.
  std::vector<synth::SiteProfile> BuildProfiles() const;
  SimulatorConfig BuildConfig() const;
};

// Spec-driven streaming run: exactly StreamScenario(BuildProfiles(),
// BuildConfig(), spec.seed, ...) plus a "scenario.spec" checkpoint section
// carrying the spec fingerprint — a resume against a mutated spec fails
// with a clear error before any engine state is restored.
ScenarioStreamResult StreamScenario(const ScenarioSpec& spec,
                                    trace::RecordSink& sink, int threads = 0,
                                    const CheckpointOptions& ckpt_options = {});

// Spec-driven run with an explicit simulator config. `config` must be
// spec.BuildConfig() plus execution-only knobs (epoch_observer, thread
// placement) — anything record-shaping would silently diverge from the
// fingerprint the checkpoint pins. This is the hook atlas::energy uses to
// attach its epoch observer without duplicating the scenario.spec
// fingerprint-guard logic.
ScenarioStreamResult StreamScenario(const ScenarioSpec& spec,
                                    const SimulatorConfig& config,
                                    trace::RecordSink& sink, int threads,
                                    const CheckpointOptions& ckpt_options);

}  // namespace atlas::cdn
