#include "synth/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "util/checked.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/par.h"

namespace atlas::synth {

namespace {
// Layout of the generator's checkpoint blob (fingerprint + RNG stream).
constexpr std::uint32_t kWorkloadStateVersion = 1;

// Event-buffer preallocation clamp (the PR 2 trace_io idiom): a hostile or
// huge logical budget must not OOM on reserve() before generation starts.
constexpr std::uint64_t kMaxPreallocEvents = 1u << 20;
}  // namespace

WorkloadGenerator::WorkloadGenerator(const SiteProfile& profile,
                                     std::uint64_t seed)
    : profile_(profile),
      rng_(seed),
      catalog_(profile_, rng_),
      users_(profile_, rng_),
      week_hours_(profile_) {
  BuildShards();
}

void WorkloadGenerator::BuildShards() {
  // Contiguous user ranges; every user (and their favorite set) lives in
  // exactly one shard, so repeat-access behaviour is untouched by sharding.
  const std::size_t n = users_.size();
  const std::size_t shard_count = std::min<std::size_t>(kGenerateShards, n);
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    GenShard shard;
    shard.user_lo = util::CheckedIndexU32(s * n / shard_count, "user");
    shard.user_hi = util::CheckedIndexU32((s + 1) * n / shard_count, "user");
    std::vector<double> activities;
    activities.reserve(shard.user_hi - shard.user_lo);
    for (std::uint32_t u = shard.user_lo; u < shard.user_hi; ++u) {
      const double a = users_.user(u).activity;
      activities.push_back(a);
      shard.activity_mass += a;
    }
    shard.user_alias = std::make_unique<stats::AliasTable>(activities);
    shards_.push_back(std::move(shard));
  }
}

RequestEvent WorkloadGenerator::MakeRequest(
    std::int64_t t, std::uint32_t user_index,
    std::vector<std::uint32_t>& favorites, bool session_start,
    util::Rng& rng) const {
  RequestEvent ev;
  ev.timestamp_ms = t;
  ev.user_index = user_index;
  ev.session_start = session_start;

  // Repeat access: re-request a favorite (the addiction mechanism). The
  // re-watch is gated by the object's own temporal pattern — users rewatch
  // content while it is alive on the site (front page, feeds); once a
  // short-lived object disappears, so do its repeats. Without this gate,
  // favorites would smear every pattern into a week-long plateau.
  bool repeated = false;
  if (!favorites.empty() && rng.NextBool(profile_.repeat_request_prob)) {
    const std::uint32_t fav = favorites[rng.NextBounded(favorites.size())];
    const auto& fav_obj = catalog_.object(fav);
    const double mult =
        ObjectDemandMultiplier(fav_obj.pattern, fav_obj.injected_at_ms, t,
                               catalog_.representative_tz_hours());
    const double ceiling = ObjectDemandCeiling(fav_obj.pattern);
    if (ceiling > 0.0 && rng.NextDouble() < mult / ceiling) {
      ev.object_index = fav;
      ev.is_repeat = true;
      repeated = true;
    }
  }
  if (!repeated) {
    ev.object_index = util::CheckedIndexU32(catalog_.SampleObject(t, rng),
                                            "object");
    // Only video content is sticky enough to adopt (Fig. 14: image objects
    // rarely exceed 10 requests per user; video objects frequently do).
    const auto& obj = catalog_.object(ev.object_index);
    const double adopt =
        obj.content_class == trace::ContentClass::kVideo
            ? profile_.favorite_adopt_prob
            : profile_.favorite_adopt_prob * 0.25;
    if (rng.NextBool(adopt)) {
      if (favorites.size() >= profile_.max_favorites) {
        favorites[rng.NextBounded(favorites.size())] = ev.object_index;
      } else {
        favorites.push_back(ev.object_index);
      }
    }
  }

  // Operational demand events, applied on top of the organic draw (the
  // adoption above intentionally keeps the organic object: a flash crowd
  // rides over steady interest, it does not rewrite it). Out-of-window
  // events draw no RNG, so a profile with no events generates the exact
  // byte stream it did before events existed.
  for (const DemandEvent& de : profile_.demand_events) {
    if (!de.Active(t)) continue;
    if (de.kind == DemandEventKind::kFlashCrowd) {
      if (rng.NextBool(de.share)) {
        ev.object_index = de.object_index;
        ev.is_repeat = false;
      }
    } else if (ev.object_index == de.object_index) {
      // Takedown: demand deterministically lands on the catalog neighbour
      // while the object is down.
      ev.object_index = util::CheckedIndexU32(
          (static_cast<std::size_t>(de.object_index) + 1) % catalog_.size(),
          "object");
      ev.is_repeat = false;
    }
  }

  // Video watch fraction: lognormal around the profile mean, capped at 1.
  const auto& obj = catalog_.object(ev.object_index);
  if (obj.content_class == trace::ContentClass::kVideo) {
    ev.watch_fraction = std::clamp(
        rng.NextLogNormal(std::log(profile_.watch_fraction_mean), 0.5), 0.05,
        1.0);
  }

  // Anomalies (mutually exclusive, rare).
  const double u = rng.NextDouble();
  if (u < profile_.hotlink_rate) {
    ev.anomaly = Anomaly::kHotlink;
  } else if (u < profile_.hotlink_rate + profile_.bad_range_rate) {
    ev.anomaly = Anomaly::kBadRange;
  } else if (u < profile_.hotlink_rate + profile_.bad_range_rate +
                     profile_.beacon_rate) {
    ev.anomaly = Anomaly::kBeacon;
  }
  return ev;
}

std::vector<RequestEvent> WorkloadGenerator::GenerateShard(
    const GenShard& shard, std::uint64_t budget,
    std::uint64_t stream_seed) const {
  util::Rng rng(stream_seed);

  // Per-user favorite sets persist across sessions for the whole week —
  // that persistence is what produces "some users repeatedly access certain
  // content" at the week scale. Users never leave their shard, so the map
  // is shard-private.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> favorites;

  std::vector<RequestEvent> events;
  events.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(budget + budget / 8, kMaxPreallocEvents)));

  const double geom_p = 1.0 / profile_.mean_requests_per_session;
  const double iat_mu = std::log(profile_.iat_median_s);

  while (events.size() < budget) {
    const std::uint32_t user_index =
        shard.user_lo +
        util::CheckedIndexU32(shard.user_alias->Sample(rng), "user");
    const UserInfo& user = users_.user(user_index);

    // Session start: local-time draw from the site curve, converted to UTC.
    const std::int64_t local_ms = week_hours_.SampleLocalMs(rng);
    std::int64_t t = local_ms - static_cast<std::int64_t>(
                                    user.tz_offset_quarter_hours) *
                                    15 * util::kMillisPerMinute;
    // Steady-state wrap: a local Saturday 01:00 in Tokyo corresponds to a
    // UTC time before the trace started; fold it into the observed week.
    t = ((t % util::kMillisPerWeek) + util::kMillisPerWeek) %
        util::kMillisPerWeek;

    const std::uint64_t session_requests = 1 + rng.NextGeometric(geom_p);
    auto& favs = favorites[user_index];
    for (std::uint64_t r = 0; r < session_requests && events.size() < budget;
         ++r) {
      if (r > 0) {
        const double gap_s = rng.NextLogNormal(iat_mu, profile_.iat_sigma);
        t += static_cast<std::int64_t>(gap_s * 1000.0);
        if (t >= util::kMillisPerWeek) break;  // session ran past the trace
      }
      events.push_back(MakeRequest(t, user_index, favs, r == 0, rng));
    }
  }
  return events;
}

std::vector<RequestEvent> WorkloadGenerator::Generate(
    std::uint64_t logical_requests, int threads) {
  const std::uint64_t budget =
      logical_requests > 0 ? logical_requests : profile_.total_requests;

  // Everything downstream is a pure function of these two draws-at-rest:
  // the stream base advances rng_ exactly once per Generate call (so
  // successive calls produce fresh weeks), and from it every shard derives
  // its own independent stream before any parallel work starts.
  const std::uint64_t stream_base = rng_.Next();
  const util::ShardedRng streams(stream_base, shards_.size());

  // Each shard gets the exact slice of the budget its users' activity mass
  // claims (largest-remainder, so the quotas sum to `budget`).
  std::vector<double> masses;
  masses.reserve(shards_.size());
  for (const auto& s : shards_) masses.push_back(s.activity_mass);
  const std::vector<std::uint64_t> quotas =
      util::ApportionByWeight(budget, masses);

  std::vector<std::vector<RequestEvent>> per_shard(shards_.size());
  util::ParallelFor(
      shards_.size(),
      [&](std::size_t s) {
        per_shard[s] = GenerateShard(shards_[s], quotas[s], streams.seed(s));
      },
      threads);

  // Deterministic merge: concatenate in shard order, then stable-sort by
  // timestamp. Both steps are independent of the thread count.
  std::vector<RequestEvent> events;
  events.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(budget, kMaxPreallocEvents)));
  for (auto& shard_events : per_shard) {
    events.insert(events.end(), shard_events.begin(), shard_events.end());
    shard_events.clear();
    shard_events.shrink_to_fit();
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const RequestEvent& a, const RequestEvent& b) {
                     return a.timestamp_ms < b.timestamp_ms;
                   });
  ATLAS_LOG(kInfo) << profile_.name << ": generated " << events.size()
                   << " logical requests (" << users_.size() << " users, "
                   << catalog_.size() << " objects, " << shards_.size()
                   << " shards)";
  return events;
}

double WorkloadGenerator::EstimateRecordsPerRequest(
    std::uint64_t chunk_bytes) const {
  if (chunk_bytes == 0) return 1.0;
  // Demand-weighted expectation over the catalog: video views expand into
  // ceil(watched_bytes / chunk) records; everything else stays one record.
  double weight_total = 0.0;
  double records = 0.0;
  catalog_.ForEachObject([&](std::size_t, const ObjectMeta& obj) {
    const double w = obj.popularity_weight;
    weight_total += w;
    if (obj.content_class == trace::ContentClass::kVideo) {
      const double watched = profile_.watch_fraction_mean *
                             static_cast<double>(obj.size_bytes);
      records += w * std::max(1.0, std::ceil(watched /
                                             static_cast<double>(chunk_bytes)));
    } else {
      records += w;
    }
  });
  return weight_total > 0.0 ? records / weight_total : 1.0;
}

std::uint64_t WorkloadGenerator::LogicalBudget(
    std::uint64_t chunk_bytes) const {
  const double inflation = EstimateRecordsPerRequest(chunk_bytes);
  return static_cast<std::uint64_t>(std::max(
      1.0, static_cast<double>(profile_.total_requests) / inflation));
}

std::uint64_t WorkloadGenerator::Fingerprint() const {
  std::uint64_t h = util::Fnv1a64(profile_.name);
  h = util::HashCombine(h, static_cast<std::uint64_t>(profile_.kind));
  h = util::HashCombine(h, profile_.total_requests);
  h = util::HashCombine(h, static_cast<std::uint64_t>(catalog_.size()));
  h = util::HashCombine(h, static_cast<std::uint64_t>(users_.size()));
  h = util::HashCombine(h, static_cast<std::uint64_t>(shards_.size()));
  // Demand events shape the request stream, so they are part of the
  // generator's identity: a resume against an edited event timeline must
  // fail the fingerprint check, not silently splice two different weeks.
  for (const DemandEvent& de : profile_.demand_events) {
    h = util::HashCombine(h, static_cast<std::uint64_t>(de.kind));
    h = util::HashCombine(h, static_cast<std::uint64_t>(de.start_ms));
    h = util::HashCombine(h, static_cast<std::uint64_t>(de.end_ms));
    h = util::HashCombine(h, de.object_index);
    h = util::HashCombine(h, util::DoubleBits(de.share));
  }
  return h;
}

void WorkloadGenerator::SaveState(ckpt::Writer& w) const {
  w.WriteVersion(kWorkloadStateVersion);
  w.WriteU64(Fingerprint());
  const util::Rng::Snapshot rng = rng_.TakeSnapshot();
  for (std::uint64_t word : rng.state) w.WriteU64(word);
  w.WriteDouble(rng.cached_gaussian);
  w.WriteBool(rng.has_cached_gaussian);
}

void WorkloadGenerator::RestoreState(ckpt::Reader& r) {
  r.ExpectVersion("workload generator", kWorkloadStateVersion);
  const std::uint64_t fp = r.ReadU64();
  if (fp != Fingerprint()) {
    throw std::runtime_error(
        "ckpt: workload fingerprint mismatch for profile '" + profile_.name +
        "' (checkpoint was taken against a different profile or seed plan)");
  }
  util::Rng::Snapshot rng;
  for (std::uint64_t& word : rng.state) word = r.ReadU64();
  rng.cached_gaussian = r.ReadDouble();
  rng.has_cached_gaussian = r.ReadBool();
  rng_.RestoreSnapshot(rng);
}

}  // namespace atlas::synth
