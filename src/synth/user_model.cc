#include "synth/user_model.h"

#include <algorithm>
#include <stdexcept>

#include "util/hash.h"

namespace atlas::synth {
namespace {

// Candidate UTC offsets (in quarter hours) per continent, with weights.
struct TzChoice {
  std::int8_t quarter_hours;
  double weight;
};

const std::vector<TzChoice>& TzChoicesFor(Continent c) {
  static const std::vector<TzChoice> kNa = {
      {-8 * 4, 0.25}, {-7 * 4, 0.15}, {-6 * 4, 0.3}, {-5 * 4, 0.3}};
  static const std::vector<TzChoice> kEu = {
      {0 * 4, 0.3}, {1 * 4, 0.4}, {2 * 4, 0.2}, {3 * 4, 0.1}};
  static const std::vector<TzChoice> kAs = {
      {22, 0.2},  // +5:30 (India)
      {7 * 4, 0.25},
      {8 * 4, 0.35},
      {9 * 4, 0.2}};
  static const std::vector<TzChoice> kSa = {
      {-18, 0.2},  // -4:30 (Venezuela, 2015)
      {-4 * 4, 0.35},
      {-3 * 4, 0.45}};
  switch (c) {
    case Continent::kNorthAmerica:
      return kNa;
    case Continent::kEurope:
      return kEu;
    case Continent::kAsia:
      return kAs;
    case Continent::kSouthAmerica:
      return kSa;
  }
  return kNa;
}

}  // namespace

const char* ToString(Continent c) {
  switch (c) {
    case Continent::kNorthAmerica:
      return "North America";
    case Continent::kEurope:
      return "Europe";
    case Continent::kAsia:
      return "Asia";
    case Continent::kSouthAmerica:
      return "South America";
  }
  return "?";
}

Continent ContinentFromTzQuarterHours(std::int8_t tz_quarter_hours) {
  const double h = tz_quarter_hours / 4.0;
  if (h >= 4.5) return Continent::kAsia;
  if (h >= -2.0) return Continent::kEurope;
  if (h >= -4.8 && h <= -3.0) {
    // The generator places SA users at -4:30 and east (NA stops at -5:00).
    return Continent::kSouthAmerica;
  }
  return Continent::kNorthAmerica;
}

UserInfo UserPopulation::GenerateUser(util::Rng& rng) const {
  const auto& bank = trace::UaBank::Instance();
  const std::vector<double> device_weights(profile_.device_mix.begin(),
                                           profile_.device_mix.end());
  const std::vector<double> continent_weights(profile_.continent_mix.begin(),
                                              profile_.continent_mix.end());
  UserInfo u;
  u.user_id = util::Mix64(rng.Next() | 1);
  u.device = static_cast<trace::DeviceType>(rng.NextWeighted(device_weights));
  const auto ua_ids = bank.IdsForDevice(u.device);
  u.user_agent_id = ua_ids[rng.NextBounded(ua_ids.size())];
  u.continent = static_cast<Continent>(rng.NextWeighted(continent_weights));
  const auto& tz_choices = TzChoicesFor(u.continent);
  std::vector<double> tz_w;
  tz_w.reserve(tz_choices.size());
  for (const auto& c : tz_choices) tz_w.push_back(c.weight);
  u.tz_offset_quarter_hours = tz_choices[rng.NextWeighted(tz_w)].quarter_hours;
  u.activity = rng.NextPareto(1.0, profile_.user_activity_alpha);
  u.incognito = rng.NextBool(profile_.incognito_rate);
  return u;
}

UserPopulation::UserPopulation(const SiteProfile& profile, util::Rng& rng)
    : profile_(profile) {
  profile.Validate();
  const std::size_t n = profile.num_users;

  // The user table's half of the synth-table budget (the catalog gets the
  // other half; see SiteProfile::synth_table_budget_bytes).
  store_.BeginBuild(n, kUserShardItems, profile.synth_table_budget_bytes / 2);

  for (std::size_t i = 0; i < n; ++i) {
    store_.BeforeItem(i, rng);
    store_.Append(GenerateUser(rng));
  }
  store_.EndBuild([this](std::size_t shard, util::Rng& replay_rng,
                         std::vector<UserInfo>& out) {
    const std::size_t count =
        store_.ShardEnd(shard) - store_.ShardBegin(shard);
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(GenerateUser(replay_rng));
    }
  });
}

}  // namespace atlas::synth
