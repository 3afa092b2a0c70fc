#include "cdn/scenario_spec.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cdn/cache.h"
#include "ckpt/checkpoint.h"  // atlas-lint: allow(layer-dag) ckpt is the passive serialization substrate; consuming its codec interface does not invert control flow
#include "util/config.h"
#include "util/hash.h"

namespace atlas::cdn {
namespace {

using util::config::ConfigError;
using util::config::TableView;
using util::config::TomlFloat;
using util::config::TomlString;
using util::config::Value;

// Checkpoint section carrying the spec fingerprint.
constexpr std::uint32_t kScenarioSpecVersion = 1;

constexpr double kMillisPerHour = 3600.0 * 1000.0;

std::int64_t HoursToMs(double hours) {
  return static_cast<std::int64_t>(std::llround(hours * kMillisPerHour));
}

synth::SiteProfile BaseProfile(const std::string& base, double scale) {
  if (base == "V-1") return synth::SiteProfile::V1(scale);
  if (base == "V-2") return synth::SiteProfile::V2(scale);
  if (base == "P-1") return synth::SiteProfile::P1(scale);
  if (base == "P-2") return synth::SiteProfile::P2(scale);
  if (base == "S-1") return synth::SiteProfile::S1(scale);
  if (base == "N-1") return synth::SiteProfile::NonAdult(scale);
  if (base == "L-1") return synth::SiteProfile::LiveStream(scale);
  throw std::invalid_argument(
      "ScenarioSpec: unknown base profile '" + base +
      "' (expected V-1, V-2, P-1, P-2, S-1, N-1, or L-1)");
}

SpecEventKind ParseEventKind(const std::string& kind) {
  if (kind == "flash-crowd") return SpecEventKind::kFlashCrowd;
  if (kind == "takedown") return SpecEventKind::kTakedown;
  if (kind == "dc-outage") return SpecEventKind::kDcOutage;
  if (kind == "cache-flush") return SpecEventKind::kCacheFlush;
  throw std::invalid_argument(
      "ScenarioSpec: unknown event kind '" + kind +
      "' (expected flash-crowd, takedown, dc-outage, or cache-flush)");
}

bool IsDemandKind(SpecEventKind k) {
  return k == SpecEventKind::kFlashCrowd || k == SpecEventKind::kTakedown;
}

PolicyKind ParsePolicy(const std::string& name) {
  for (int i = 0; i < kNumPolicyKinds; ++i) {
    const auto kind = static_cast<PolicyKind>(i);
    if (name == ToString(kind)) return kind;
  }
  throw std::invalid_argument("ScenarioSpec: unknown edge_policy '" + name +
                              "' (expected LRU, FIFO, LFU, GDSF, S4LRU, or "
                              "TTL-LRU)");
}

std::uint64_t NonNegative(std::int64_t v, const char* key) {
  if (v < 0) {
    throw std::invalid_argument(std::string("ScenarioSpec: ") + key +
                                " must be >= 0");
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& EffectiveName(const SiteSpec& site) {
  return site.name.empty() ? site.profile : site.name;
}

SiteSpec ParseSite(const Value& v, std::size_t index,
                   const std::string& source) {
  TableView t(v, "site[" + std::to_string(index) + "]", source);
  SiteSpec s;
  s.profile = t.GetString("profile");
  s.name = t.GetString("name", s.profile);
  if (t.Has("total_requests")) {
    s.total_requests = NonNegative(t.GetInt("total_requests"), "total_requests");
  }
  if (t.Has("num_objects")) {
    s.num_objects = NonNegative(t.GetInt("num_objects"), "num_objects");
  }
  if (t.Has("num_users")) {
    s.num_users = NonNegative(t.GetInt("num_users"), "num_users");
  }
  if (t.Has("zipf_s")) s.zipf_s = t.GetFloat("zipf_s");
  if (t.Has("repeat_request_prob")) {
    s.repeat_request_prob = t.GetFloat("repeat_request_prob");
  }
  if (t.Has("incognito_rate")) s.incognito_rate = t.GetFloat("incognito_rate");
  if (t.Has("peak_local_hour")) {
    s.peak_local_hour = t.GetFloat("peak_local_hour");
  }
  if (t.Has("diurnal_amplitude")) {
    s.diurnal_amplitude = t.GetFloat("diurnal_amplitude");
  }
  if (t.Has("watch_fraction_mean")) {
    s.watch_fraction_mean = t.GetFloat("watch_fraction_mean");
  }
  t.RejectUnknownKeys();
  return s;
}

EventSpec ParseEvent(const Value& v, std::size_t index,
                     const std::string& source) {
  TableView t(v, "event[" + std::to_string(index) + "]", source);
  EventSpec e;
  e.kind = ParseEventKind(t.GetString("kind"));
  switch (e.kind) {
    case SpecEventKind::kFlashCrowd:
      e.site = t.GetString("site");
      e.start_hours = t.GetFloat("start_hours");
      e.end_hours = t.GetFloat("end_hours");
      e.object = t.GetInt("object");
      e.share = t.GetFloat("share");
      break;
    case SpecEventKind::kTakedown:
      e.site = t.GetString("site");
      e.start_hours = t.GetFloat("start_hours");
      e.end_hours = t.GetFloat("end_hours");
      e.object = t.GetInt("object");
      break;
    case SpecEventKind::kDcOutage:
      e.start_hours = t.GetFloat("start_hours");
      e.end_hours = t.GetFloat("end_hours");
      e.dc = t.GetInt("dc");
      break;
    case SpecEventKind::kCacheFlush:
      e.start_hours = t.GetFloat("at_hours");
      e.dc = t.GetInt("dc", OpEvent::kAllDcs);
      break;
  }
  t.RejectUnknownKeys();
  return e;
}

void ParseSimulator(const Value& v, SimulatorConfig& sim,
                    const std::string& source) {
  TableView t(v, "simulator", source);
  sim.chunk_bytes = NonNegative(
      t.GetInt("chunk_bytes", static_cast<std::int64_t>(sim.chunk_bytes)),
      "chunk_bytes");
  sim.playback_bytes_per_s =
      t.GetFloat("playback_bytes_per_s", sim.playback_bytes_per_s);
  sim.browser_capacity_bytes = NonNegative(
      t.GetInt("browser_capacity_bytes",
               static_cast<std::int64_t>(sim.browser_capacity_bytes)),
      "browser_capacity_bytes");
  sim.browser_freshness_ms =
      t.GetInt("browser_freshness_ms", sim.browser_freshness_ms);
  sim.browser_max_object_bytes = NonNegative(
      t.GetInt("browser_max_object_bytes",
               static_cast<std::int64_t>(sim.browser_max_object_bytes)),
      "browser_max_object_bytes");
  sim.peer_fill = t.GetBool("peer_fill", sim.peer_fill);
  sim.epoch_ms = t.GetInt("epoch_ms", sim.epoch_ms);
  if (const Value* push = t.Consume("push")) {
    TableView p(*push, "simulator.push", source);
    sim.push.enabled = p.GetBool("enabled", sim.push.enabled);
    sim.push.top_n = static_cast<std::size_t>(NonNegative(
        p.GetInt("top_n", static_cast<std::int64_t>(sim.push.top_n)),
        "top_n"));
    sim.push.include_diurnal =
        p.GetBool("include_diurnal", sim.push.include_diurnal);
    sim.push.include_long_lived =
        p.GetBool("include_long_lived", sim.push.include_long_lived);
    sim.push.include_short_lived =
        p.GetBool("include_short_lived", sim.push.include_short_lived);
    sim.push.include_flash = p.GetBool("include_flash", sim.push.include_flash);
    sim.push.include_outlier =
        p.GetBool("include_outlier", sim.push.include_outlier);
    sim.push.video_prefix_chunks = NonNegative(
        p.GetInt("video_prefix_chunks",
                 static_cast<std::int64_t>(sim.push.video_prefix_chunks)),
        "video_prefix_chunks");
    p.RejectUnknownKeys();
  }
  if (const Value* topo = t.Consume("topology")) {
    TableView tp(*topo, "simulator.topology", source);
    sim.topology.edge_policy = ParsePolicy(
        tp.GetString("edge_policy", ToString(sim.topology.edge_policy)));
    sim.topology.edge_capacity_bytes = NonNegative(
        tp.GetInt("edge_capacity_bytes",
                  static_cast<std::int64_t>(sim.topology.edge_capacity_bytes)),
        "edge_capacity_bytes");
    sim.topology.edge_ttl_ms =
        tp.GetInt("edge_ttl_ms", sim.topology.edge_ttl_ms);
    sim.topology.dcs_per_continent = static_cast<int>(
        tp.GetInt("dcs_per_continent", sim.topology.dcs_per_continent));
    tp.RejectUnknownKeys();
  }
  t.RejectUnknownKeys();
}

void ParseEnergy(const Value& v, EnergySpec& energy,
                 const std::string& source) {
  TableView t(v, "energy", source);
  energy.server_idle_watts =
      t.GetFloat("server_idle_watts", energy.server_idle_watts);
  energy.server_busy_watts =
      t.GetFloat("server_busy_watts", energy.server_busy_watts);
  energy.server_capacity_gbps =
      t.GetFloat("server_capacity_gbps", energy.server_capacity_gbps);
  energy.storage_watts_per_gb =
      t.GetFloat("storage_watts_per_gb", energy.storage_watts_per_gb);
  energy.edge_hit_j_per_gb =
      t.GetFloat("edge_hit_j_per_gb", energy.edge_hit_j_per_gb);
  energy.peer_fill_j_per_gb =
      t.GetFloat("peer_fill_j_per_gb", energy.peer_fill_j_per_gb);
  energy.origin_fetch_j_per_gb =
      t.GetFloat("origin_fetch_j_per_gb", energy.origin_fetch_j_per_gb);
  energy.push_j_per_gb = t.GetFloat("push_j_per_gb", energy.push_j_per_gb);
  energy.electricity_usd_per_kwh =
      t.GetFloat("electricity_usd_per_kwh", energy.electricity_usd_per_kwh);
  energy.edge_hit_usd_per_gb =
      t.GetFloat("edge_hit_usd_per_gb", energy.edge_hit_usd_per_gb);
  energy.peer_fill_usd_per_gb =
      t.GetFloat("peer_fill_usd_per_gb", energy.peer_fill_usd_per_gb);
  energy.origin_fetch_usd_per_gb =
      t.GetFloat("origin_fetch_usd_per_gb", energy.origin_fetch_usd_per_gb);
  energy.push_usd_per_gb =
      t.GetFloat("push_usd_per_gb", energy.push_usd_per_gb);
  t.RejectUnknownKeys();
}

void RequireFiniteNonNegative(double v, const char* key) {
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument(std::string("ScenarioSpec: energy.") + key +
                                " must be finite and >= 0");
  }
}

}  // namespace

const char* ToString(SpecEventKind k) {
  switch (k) {
    case SpecEventKind::kFlashCrowd:
      return "flash-crowd";
    case SpecEventKind::kTakedown:
      return "takedown";
    case SpecEventKind::kDcOutage:
      return "dc-outage";
    case SpecEventKind::kCacheFlush:
      return "cache-flush";
  }
  return "?";
}

ScenarioSpec ScenarioSpec::Parse(std::string_view text,
                                 const std::string& source) {
  const Value root = util::config::ParseToml(text, source);
  TableView t(root, "scenario", source);
  ScenarioSpec spec;
  try {
    spec.name = t.GetString("name");
    spec.description = t.GetString("description", "");
    spec.scale = t.GetFloat("scale", 1.0);
    spec.seed = NonNegative(t.GetInt("seed", 42), "seed");
    if (const Value* sites = t.Consume("site")) {
      if (sites->kind != Value::Kind::kArray) {
        throw ConfigError(source + ": 'site' must be an array of [[site]] "
                          "tables");
      }
      for (std::size_t i = 0; i < sites->array.size(); ++i) {
        spec.sites.push_back(ParseSite(sites->array[i], i, source));
      }
    }
    if (const Value* events = t.Consume("event")) {
      if (events->kind != Value::Kind::kArray) {
        throw ConfigError(source + ": 'event' must be an array of [[event]] "
                          "tables");
      }
      for (std::size_t i = 0; i < events->array.size(); ++i) {
        spec.events.push_back(ParseEvent(events->array[i], i, source));
      }
    }
    if (const Value* sim = t.Consume("simulator")) {
      ParseSimulator(*sim, spec.sim, source);
    }
    if (const Value* energy = t.Consume("energy")) {
      ParseEnergy(*energy, spec.energy, source);
    }
    t.RejectUnknownKeys();
    spec.Validate();
  } catch (const std::invalid_argument& e) {
    // Semantic defects (unknown profile, bad ranges, overlapping windows)
    // get the file name; structural ones already carry line/column.
    throw ConfigError(source + ": " + e.what());
  }
  return spec;
}

ScenarioSpec ScenarioSpec::ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError(path + ": cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str(), path);
}

void ScenarioSpec::Validate() const {
  if (name.empty()) {
    throw std::invalid_argument("ScenarioSpec: 'name' must be non-empty");
  }
  if (!std::isfinite(scale) || scale <= 0.0 ||
      scale > synth::kMaxProfileScale) {
    throw std::invalid_argument(
        "ScenarioSpec: scale must be a finite value in (0, " +
        std::to_string(synth::kMaxProfileScale) + "]");
  }
  if (sites.empty()) {
    throw std::invalid_argument(
        "ScenarioSpec: at least one [[site]] is required");
  }
  for (const SiteSpec& s : sites) {
    BaseProfile(s.profile, 1.0);  // throws on unknown base
    if (EffectiveName(s).empty()) {
      throw std::invalid_argument("ScenarioSpec: site name must be non-empty");
    }
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      if (EffectiveName(sites[i]) == EffectiveName(sites[j])) {
        throw std::invalid_argument("ScenarioSpec: duplicate site name '" +
                                    EffectiveName(sites[i]) + "'");
      }
    }
  }
  for (const EventSpec& e : events) {
    if (IsDemandKind(e.kind)) {
      bool found = false;
      for (const SiteSpec& s : sites) found = found || EffectiveName(s) == e.site;
      if (!found) {
        throw std::invalid_argument("ScenarioSpec: event targets unknown site '" +
                                    e.site + "'");
      }
      if (e.object < 0) {
        throw std::invalid_argument(
            "ScenarioSpec: event 'object' must be >= 0");
      }
    }
    const bool windowed = e.kind != SpecEventKind::kCacheFlush;
    if (e.start_hours < 0.0 ||
        (windowed && e.end_hours <= e.start_hours)) {
      throw std::invalid_argument(
          "ScenarioSpec: event window must satisfy 0 <= start < end (hours)");
    }
    if (e.kind == SpecEventKind::kFlashCrowd &&
        (!(e.share > 0.0) || e.share > 1.0)) {
      throw std::invalid_argument(
          "ScenarioSpec: flash-crowd 'share' must be in (0, 1]");
    }
    if (!IsDemandKind(e.kind) && e.dc < OpEvent::kAllDcs) {
      throw std::invalid_argument("ScenarioSpec: event 'dc' must be >= -1");
    }
  }
  RequireFiniteNonNegative(energy.server_idle_watts, "server_idle_watts");
  RequireFiniteNonNegative(energy.server_busy_watts, "server_busy_watts");
  if (energy.server_busy_watts < energy.server_idle_watts) {
    throw std::invalid_argument(
        "ScenarioSpec: energy.server_busy_watts must be >= "
        "energy.server_idle_watts");
  }
  if (!std::isfinite(energy.server_capacity_gbps) ||
      energy.server_capacity_gbps <= 0.0) {
    throw std::invalid_argument(
        "ScenarioSpec: energy.server_capacity_gbps must be finite and > 0");
  }
  RequireFiniteNonNegative(energy.storage_watts_per_gb, "storage_watts_per_gb");
  RequireFiniteNonNegative(energy.edge_hit_j_per_gb, "edge_hit_j_per_gb");
  RequireFiniteNonNegative(energy.peer_fill_j_per_gb, "peer_fill_j_per_gb");
  RequireFiniteNonNegative(energy.origin_fetch_j_per_gb,
                           "origin_fetch_j_per_gb");
  RequireFiniteNonNegative(energy.push_j_per_gb, "push_j_per_gb");
  RequireFiniteNonNegative(energy.electricity_usd_per_kwh,
                           "electricity_usd_per_kwh");
  RequireFiniteNonNegative(energy.edge_hit_usd_per_gb, "edge_hit_usd_per_gb");
  RequireFiniteNonNegative(energy.peer_fill_usd_per_gb, "peer_fill_usd_per_gb");
  RequireFiniteNonNegative(energy.origin_fetch_usd_per_gb,
                           "origin_fetch_usd_per_gb");
  RequireFiniteNonNegative(energy.push_usd_per_gb, "push_usd_per_gb");
  // Same-kind events on the same target must not overlap: inside the
  // intersection, "the" active share/takedown/failover would be ambiguous.
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const EventSpec& a = events[i];
      const EventSpec& b = events[j];
      if (a.kind != b.kind || a.kind == SpecEventKind::kCacheFlush) continue;
      const bool same_target =
          IsDemandKind(a.kind) ? a.site == b.site : a.dc == b.dc;
      if (same_target && a.start_hours < b.end_hours &&
          b.start_hours < a.end_hours) {
        throw std::invalid_argument(
            std::string("ScenarioSpec: overlapping ") + ToString(a.kind) +
            " event windows" +
            (IsDemandKind(a.kind) ? " for site '" + a.site + "'"
                                  : " for dc " + std::to_string(a.dc)));
      }
    }
  }
}

std::string ScenarioSpec::CanonicalToml() const {
  std::ostringstream out;
  out << "name = " << TomlString(name) << "\n";
  out << "description = " << TomlString(description) << "\n";
  out << "scale = " << TomlFloat(scale) << "\n";
  out << "seed = " << seed << "\n";
  for (const SiteSpec& s : sites) {
    out << "\n[[site]]\n";
    out << "profile = " << TomlString(s.profile) << "\n";
    out << "name = " << TomlString(EffectiveName(s)) << "\n";
    if (s.total_requests) out << "total_requests = " << *s.total_requests << "\n";
    if (s.num_objects) out << "num_objects = " << *s.num_objects << "\n";
    if (s.num_users) out << "num_users = " << *s.num_users << "\n";
    if (s.zipf_s) out << "zipf_s = " << TomlFloat(*s.zipf_s) << "\n";
    if (s.repeat_request_prob) {
      out << "repeat_request_prob = " << TomlFloat(*s.repeat_request_prob)
          << "\n";
    }
    if (s.incognito_rate) {
      out << "incognito_rate = " << TomlFloat(*s.incognito_rate) << "\n";
    }
    if (s.peak_local_hour) {
      out << "peak_local_hour = " << TomlFloat(*s.peak_local_hour) << "\n";
    }
    if (s.diurnal_amplitude) {
      out << "diurnal_amplitude = " << TomlFloat(*s.diurnal_amplitude) << "\n";
    }
    if (s.watch_fraction_mean) {
      out << "watch_fraction_mean = " << TomlFloat(*s.watch_fraction_mean)
          << "\n";
    }
  }
  for (const EventSpec& e : events) {
    out << "\n[[event]]\n";
    out << "kind = " << TomlString(ToString(e.kind)) << "\n";
    switch (e.kind) {
      case SpecEventKind::kFlashCrowd:
        out << "site = " << TomlString(e.site) << "\n";
        out << "start_hours = " << TomlFloat(e.start_hours) << "\n";
        out << "end_hours = " << TomlFloat(e.end_hours) << "\n";
        out << "object = " << e.object << "\n";
        out << "share = " << TomlFloat(e.share) << "\n";
        break;
      case SpecEventKind::kTakedown:
        out << "site = " << TomlString(e.site) << "\n";
        out << "start_hours = " << TomlFloat(e.start_hours) << "\n";
        out << "end_hours = " << TomlFloat(e.end_hours) << "\n";
        out << "object = " << e.object << "\n";
        break;
      case SpecEventKind::kDcOutage:
        out << "start_hours = " << TomlFloat(e.start_hours) << "\n";
        out << "end_hours = " << TomlFloat(e.end_hours) << "\n";
        out << "dc = " << e.dc << "\n";
        break;
      case SpecEventKind::kCacheFlush:
        out << "at_hours = " << TomlFloat(e.start_hours) << "\n";
        out << "dc = " << e.dc << "\n";
        break;
    }
  }
  out << "\n[simulator]\n";
  out << "chunk_bytes = " << sim.chunk_bytes << "\n";
  out << "playback_bytes_per_s = " << TomlFloat(sim.playback_bytes_per_s)
      << "\n";
  out << "browser_capacity_bytes = " << sim.browser_capacity_bytes << "\n";
  out << "browser_freshness_ms = " << sim.browser_freshness_ms << "\n";
  out << "browser_max_object_bytes = " << sim.browser_max_object_bytes << "\n";
  out << "peer_fill = " << (sim.peer_fill ? "true" : "false") << "\n";
  out << "epoch_ms = " << sim.epoch_ms << "\n";
  out << "\n[simulator.push]\n";
  out << "enabled = " << (sim.push.enabled ? "true" : "false") << "\n";
  out << "top_n = " << sim.push.top_n << "\n";
  out << "include_diurnal = " << (sim.push.include_diurnal ? "true" : "false")
      << "\n";
  out << "include_long_lived = "
      << (sim.push.include_long_lived ? "true" : "false") << "\n";
  out << "include_short_lived = "
      << (sim.push.include_short_lived ? "true" : "false") << "\n";
  out << "include_flash = " << (sim.push.include_flash ? "true" : "false")
      << "\n";
  out << "include_outlier = " << (sim.push.include_outlier ? "true" : "false")
      << "\n";
  out << "video_prefix_chunks = " << sim.push.video_prefix_chunks << "\n";
  out << "\n[simulator.topology]\n";
  out << "edge_policy = " << TomlString(ToString(sim.topology.edge_policy))
      << "\n";
  out << "edge_capacity_bytes = " << sim.topology.edge_capacity_bytes << "\n";
  out << "edge_ttl_ms = " << sim.topology.edge_ttl_ms << "\n";
  out << "dcs_per_continent = " << sim.topology.dcs_per_continent << "\n";
  out << "\n[energy]\n";
  out << "server_idle_watts = " << TomlFloat(energy.server_idle_watts) << "\n";
  out << "server_busy_watts = " << TomlFloat(energy.server_busy_watts) << "\n";
  out << "server_capacity_gbps = " << TomlFloat(energy.server_capacity_gbps)
      << "\n";
  out << "storage_watts_per_gb = " << TomlFloat(energy.storage_watts_per_gb)
      << "\n";
  out << "edge_hit_j_per_gb = " << TomlFloat(energy.edge_hit_j_per_gb) << "\n";
  out << "peer_fill_j_per_gb = " << TomlFloat(energy.peer_fill_j_per_gb)
      << "\n";
  out << "origin_fetch_j_per_gb = " << TomlFloat(energy.origin_fetch_j_per_gb)
      << "\n";
  out << "push_j_per_gb = " << TomlFloat(energy.push_j_per_gb) << "\n";
  out << "electricity_usd_per_kwh = "
      << TomlFloat(energy.electricity_usd_per_kwh) << "\n";
  out << "edge_hit_usd_per_gb = " << TomlFloat(energy.edge_hit_usd_per_gb)
      << "\n";
  out << "peer_fill_usd_per_gb = " << TomlFloat(energy.peer_fill_usd_per_gb)
      << "\n";
  out << "origin_fetch_usd_per_gb = "
      << TomlFloat(energy.origin_fetch_usd_per_gb) << "\n";
  out << "push_usd_per_gb = " << TomlFloat(energy.push_usd_per_gb) << "\n";
  return out.str();
}

std::uint64_t ScenarioSpec::Fingerprint() const {
  return util::Fnv1a64(CanonicalToml());
}

std::vector<synth::SiteProfile> ScenarioSpec::BuildProfiles() const {
  Validate();
  std::vector<synth::SiteProfile> profiles;
  profiles.reserve(sites.size());
  for (const SiteSpec& s : sites) {
    synth::SiteProfile p = BaseProfile(s.profile, scale);
    p.name = EffectiveName(s);
    if (s.total_requests) p.total_requests = *s.total_requests;
    if (s.num_objects) p.num_objects = static_cast<std::size_t>(*s.num_objects);
    if (s.num_users) p.num_users = static_cast<std::size_t>(*s.num_users);
    if (s.zipf_s) p.zipf_s = *s.zipf_s;
    if (s.repeat_request_prob) p.repeat_request_prob = *s.repeat_request_prob;
    if (s.incognito_rate) p.incognito_rate = *s.incognito_rate;
    if (s.peak_local_hour) p.peak_local_hour = *s.peak_local_hour;
    if (s.diurnal_amplitude) p.diurnal_amplitude = *s.diurnal_amplitude;
    if (s.watch_fraction_mean) p.watch_fraction_mean = *s.watch_fraction_mean;
    for (const EventSpec& e : events) {
      if (!IsDemandKind(e.kind) || e.site != p.name) continue;
      synth::DemandEvent de;
      de.kind = e.kind == SpecEventKind::kFlashCrowd
                    ? synth::DemandEventKind::kFlashCrowd
                    : synth::DemandEventKind::kTakedown;
      de.start_ms = HoursToMs(e.start_hours);
      de.end_ms = HoursToMs(e.end_hours);
      if (e.object > std::numeric_limits<std::uint32_t>::max()) {
        throw std::invalid_argument(
            "ScenarioSpec: event 'object' exceeds the uint32 index range");
      }
      de.object_index = static_cast<std::uint32_t>(e.object);
      de.share = e.share;
      p.demand_events.push_back(de);
    }
    p.Validate();
    profiles.push_back(std::move(p));
  }
  return profiles;
}

SimulatorConfig ScenarioSpec::BuildConfig() const {
  Validate();
  SimulatorConfig config = sim;
  config.op_events.clear();
  for (const EventSpec& e : events) {
    if (IsDemandKind(e.kind)) continue;
    OpEvent op;
    op.kind = e.kind == SpecEventKind::kDcOutage ? OpEventKind::kDcOutage
                                                 : OpEventKind::kCacheFlush;
    op.start_ms = HoursToMs(e.start_hours);
    op.end_ms = e.kind == SpecEventKind::kDcOutage ? HoursToMs(e.end_hours)
                                                   : op.start_ms;
    if (e.dc > std::numeric_limits<std::int32_t>::max()) {
      throw std::invalid_argument("ScenarioSpec: event 'dc' out of range");
    }
    op.dc = static_cast<std::int32_t>(e.dc);
    config.op_events.push_back(op);
  }
  return config;
}

ScenarioStreamResult StreamScenario(const ScenarioSpec& spec,
                                    trace::RecordSink& sink, int threads,
                                    const CheckpointOptions& ckpt_options) {
  return StreamScenario(spec, spec.BuildConfig(), sink, threads, ckpt_options);
}

ScenarioStreamResult StreamScenario(const ScenarioSpec& spec,
                                    const SimulatorConfig& config,
                                    trace::RecordSink& sink, int threads,
                                    const CheckpointOptions& ckpt_options) {
  const std::uint64_t fp = spec.Fingerprint();
  CheckpointOptions opts = ckpt_options;
  opts.save_extra = [fp, &spec,
                     saved = ckpt_options.save_extra](ckpt::Writer& w) {
    w.BeginSection("scenario.spec", kScenarioSpecVersion);
    w.WriteU64(fp);
    w.WriteString(spec.name);
    w.EndSection();
    if (saved) saved(w);
  };
  if (ckpt_options.resume != nullptr) {
    // Sections are name-addressed, so the spec check runs before any other
    // state is touched regardless of where the section sits in the file.
    ckpt::Reader& r = *ckpt_options.resume;
    if (!r.HasSection("scenario.spec")) {
      throw std::runtime_error(
          "ckpt: checkpoint was not written by a spec-driven run (no "
          "scenario.spec section); cannot resume it against a spec");
    }
    r.BeginSection("scenario.spec", kScenarioSpecVersion);
    const std::uint64_t saved_fp = r.ReadU64();
    const std::string saved_name = r.ReadString();
    r.EndSection();
    if (saved_fp != fp) {
      throw std::runtime_error(
          "ckpt: scenario spec fingerprint mismatch (checkpoint was taken "
          "with spec '" + saved_name +
          "', and the spec or its overrides changed since)");
    }
  }
  return StreamScenario(spec.BuildProfiles(), config, spec.seed, sink, threads,
                        opts);
}

}  // namespace atlas::cdn
