#include "synth/catalog.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/checked.h"
#include "util/hash.h"

namespace atlas::synth {
namespace {

// Concrete file types per class, with realistic frequencies. V-2's GIF-heavy
// image catalog is approximated by weighting GIF higher for video sites.
trace::FileType SampleFileType(trace::ContentClass cls,
                               trace::SiteKind site_kind, util::Rng& rng) {
  using trace::FileType;
  switch (cls) {
    case trace::ContentClass::kVideo: {
      static const FileType kTypes[] = {FileType::kMp4, FileType::kFlv,
                                        FileType::kWebm, FileType::kWmv,
                                        FileType::kAvi, FileType::kMpg};
      const std::vector<double> w = {0.55, 0.25, 0.10, 0.05, 0.03, 0.02};
      return kTypes[rng.NextWeighted(w)];
    }
    case trace::ContentClass::kImage: {
      static const FileType kTypes[] = {FileType::kJpg, FileType::kGif,
                                        FileType::kPng, FileType::kWebp,
                                        FileType::kBmp, FileType::kTiff};
      const bool gif_heavy = site_kind == trace::SiteKind::kAdultVideo;
      const std::vector<double> w =
          gif_heavy ? std::vector<double>{0.30, 0.55, 0.10, 0.04, 0.005, 0.005}
                    : std::vector<double>{0.70, 0.12, 0.14, 0.03, 0.005, 0.005};
      return kTypes[rng.NextWeighted(w)];
    }
    case trace::ContentClass::kOther: {
      static const FileType kTypes[] = {FileType::kHtml, FileType::kCss,
                                        FileType::kJs, FileType::kXml,
                                        FileType::kTxt, FileType::kJson,
                                        FileType::kMp3};
      const std::vector<double> w = {0.25, 0.20, 0.30, 0.08, 0.05, 0.10, 0.02};
      return kTypes[rng.NextWeighted(w)];
    }
  }
  return trace::FileType::kUnknown;
}

const PatternMix& MixForClass(const SiteProfile& profile,
                              trace::ContentClass cls) {
  switch (cls) {
    case trace::ContentClass::kVideo:
      return profile.video_patterns;
    case trace::ContentClass::kImage:
      return profile.image_patterns;
    case trace::ContentClass::kOther:
      return profile.other_patterns;
  }
  return profile.other_patterns;
}

const SizeModel& SizeForClass(const SiteProfile& profile,
                              trace::ContentClass cls) {
  switch (cls) {
    case trace::ContentClass::kVideo:
      return profile.video_size;
    case trace::ContentClass::kImage:
      return profile.image_size;
    case trace::ContentClass::kOther:
      return profile.other_size;
  }
  return profile.other_size;
}

// Demand-weighted mean UTC offset of the site's users; continents are
// {NA, EU, AS, SA} with representative offsets {-6, +1, +7, -4}.
double RepresentativeTz(const SiteProfile& profile) {
  static constexpr std::array<double, 4> kOffsets = {-6.0, 1.0, 7.0, -4.0};
  double tz = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    tz += profile.continent_mix[i] * kOffsets[i];
  }
  return tz;
}

}  // namespace

ObjectMeta Catalog::GenerateObject(std::size_t i, util::Rng& rng) const {
  ObjectMeta obj;
  obj.url_hash = util::Mix64(rng.Next());
  const std::vector<double> class_weights(profile_.object_class_mix.begin(),
                                          profile_.object_class_mix.end());
  obj.content_class =
      static_cast<trace::ContentClass>(rng.NextWeighted(class_weights));
  obj.file_type = SampleFileType(obj.content_class, profile_.kind, rng);
  obj.size_bytes = SizeForClass(profile_, obj.content_class).Sample(rng);
  const PatternType type = MixForClass(profile_, obj.content_class).Sample(rng);
  obj.pattern = PatternParams::Sample(type, profile_, rng);

  // Paper §IV-B: diurnal videos are smaller than long-/short-lived ones;
  // long-lived videos are the largest. Apply mild size multipliers.
  if (obj.content_class == trace::ContentClass::kVideo) {
    if (type == PatternType::kDiurnal) {
      obj.size_bytes = static_cast<std::uint64_t>(
          static_cast<double>(obj.size_bytes) * 0.6);
    } else if (type == PatternType::kLongLived) {
      obj.size_bytes = static_cast<std::uint64_t>(
          static_cast<double>(obj.size_bytes) * 1.6);
    } else if (type == PatternType::kShortLived) {
      obj.size_bytes = static_cast<std::uint64_t>(
          static_cast<double>(obj.size_bytes) * 1.2);
    }
  }
  if (obj.size_bytes == 0) obj.size_bytes = 1;

  // Static popularity: Zipf over the shuffled rank, biased per class so
  // sites like V-2 can have per-object video demand exceed image demand.
  const double rank = static_cast<double>(ranks_[i]);
  obj.popularity_weight =
      std::pow(rank, -profile_.zipf_s) *
      profile_.class_demand_bias[static_cast<std::size_t>(obj.content_class)];

  // Injection: a `preexisting_fraction` share is live at trace start (with
  // negative ages so early decay is already over for some); the rest
  // arrives uniformly across the week.
  if (rng.NextBool(profile_.preexisting_fraction)) {
    obj.injected_at_ms = -static_cast<std::int64_t>(
        rng.NextDouble() * 3.0 * static_cast<double>(util::kMillisPerDay));
  } else {
    obj.injected_at_ms = static_cast<std::int64_t>(
        rng.NextDouble() * static_cast<double>(util::kMillisPerWeek));
  }
  return obj;
}

Catalog::Catalog(const SiteProfile& profile, util::Rng& rng)
    : profile_(profile) {
  profile.Validate();
  representative_tz_hours_ = RepresentativeTz(profile);
  const std::size_t n = profile.num_objects;

  // Zipf ranks are assigned to a random permutation of objects so that rank
  // does not correlate with class or pattern by construction.
  ranks_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ranks_[i] = util::CheckedIndexU32(i + 1, "object rank");
  }
  rng.Shuffle(ranks_);

  // The catalog's half of the synth-table budget (the user table gets the
  // other half; see SiteProfile::synth_table_budget_bytes).
  store_.BeginBuild(n, kCatalogShardItems, profile.synth_table_budget_bytes / 2);

  // One sequential pass: generate each object from the shared stream and
  // fold it into the resident sampling machinery (groups, hourly masses,
  // counts). All accumulators receive contributions in object order, so the
  // floating-point sums are identical whether the store keeps the object or
  // drops it for lazy replay.
  for (std::size_t i = 0; i < n; ++i) {
    store_.BeforeItem(i, rng);
    const ObjectMeta obj = GenerateObject(i, rng);
    store_.Append(obj);

    const auto type = static_cast<std::size_t>(obj.pattern.type);
    groups_[type].members.push_back(util::CheckedIndexU32(i, "object"));
    groups_[type].weights.push_back(obj.popularity_weight);
    groups_[type].weight_total += obj.popularity_weight;
    for (int h = 0; h < util::kHoursPerWeek; ++h) {
      const std::int64_t t =
          static_cast<std::int64_t>(h) * util::kMillisPerHour +
          util::kMillisPerHour / 2;
      hourly_mass_[type][static_cast<std::size_t>(h)] +=
          obj.popularity_weight *
          ObjectDemandMultiplier(obj.pattern, obj.injected_at_ms, t,
                                 representative_tz_hours_);
    }
  }
  store_.EndBuild([this](std::size_t shard, util::Rng& replay_rng,
                         std::vector<ObjectMeta>& out) {
    for (std::size_t i = store_.ShardBegin(shard); i < store_.ShardEnd(shard);
         ++i) {
      out.push_back(GenerateObject(i, replay_rng));
    }
  });
  if (!store_.lazy()) {
    // Replay is the only consumer of the rank permutation after the build.
    ranks_.clear();
    ranks_.shrink_to_fit();
  }

  for (auto& group : groups_) {
    if (!group.members.empty()) {
      group.alias = std::make_unique<stats::AliasTable>(group.weights);
    }
  }
}

std::size_t Catalog::SampleObject(std::int64_t utc_ms, util::Rng& rng) const {
  std::int64_t hour = utc_ms / util::kMillisPerHour;
  hour = std::clamp<std::int64_t>(hour, 0, util::kHoursPerWeek - 1);

  // Stage 1: pick the pattern type by hourly mass.
  std::vector<double> masses(kNumPatternTypes);
  double total = 0.0;
  for (int p = 0; p < kNumPatternTypes; ++p) {
    masses[static_cast<std::size_t>(p)] =
        hourly_mass_[static_cast<std::size_t>(p)][static_cast<std::size_t>(hour)];
    total += masses[static_cast<std::size_t>(p)];
  }
  if (total <= 0.0) {
    // Degenerate (e.g. single-pattern catalog before any injection): fall
    // back to static weights over everything.
    return static_cast<std::size_t>(rng.NextBounded(store_.size()));
  }
  const auto type = rng.NextWeighted(masses);
  const PatternGroup& group = groups_[type];

  // Stage 2: rejection-sample within the group. Acceptance ratio is the
  // object's current multiplier over the group ceiling.
  std::uint32_t best_alive = std::numeric_limits<std::uint32_t>::max();
  double best_alive_mult = 0.0;
  for (int attempt = 0; attempt < 128; ++attempt) {
    const std::uint32_t idx = group.members[group.alias->Sample(rng)];
    const ObjectMeta obj = store_.Get(idx);
    const double mult = ObjectDemandMultiplier(
        obj.pattern, obj.injected_at_ms, utc_ms, representative_tz_hours_);
    if (mult > best_alive_mult) {
      best_alive_mult = mult;
      best_alive = idx;
    }
    const double ceiling = ObjectDemandCeiling(obj.pattern);
    if (ceiling <= 0.0) continue;
    if (rng.NextDouble() < mult / ceiling) return idx;
  }
  // Tail fallback: the liveliest object seen during rejection (never an
  // uninjected or dead one), else a linear scan for anything alive.
  if (best_alive != std::numeric_limits<std::uint32_t>::max() &&
      best_alive_mult > 0.0) {
    return best_alive;
  }
  for (const std::uint32_t idx : group.members) {
    const ObjectMeta obj = store_.Get(idx);
    if (ObjectDemandMultiplier(obj.pattern, obj.injected_at_ms, utc_ms,
                               representative_tz_hours_) > 0.0) {
      return idx;
    }
  }
  // The whole group is dead despite positive hourly mass (cannot happen,
  // but the sampler must return something valid).
  return group.members.front();
}

}  // namespace atlas::synth
