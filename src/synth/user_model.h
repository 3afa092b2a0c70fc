// User population model.
//
// Users carry the static attributes the paper measures or relies on:
// device (via a concrete user-agent string, Fig. 4), timezone (continent
// mix, Fig. 3's local-time analysis), a heavy-tailed activity level (how
// many sessions they generate), and whether they browse in incognito mode
// (§V: "users are known to browse adult content in incognito/private
// browsing modes", which defeats browser caching).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/sampler.h"
#include "synth/shard_store.h"
#include "synth/site_profile.h"
#include "trace/record.h"
#include "trace/useragent.h"
#include "util/rng.h"

namespace atlas::synth {

// Continents, in SiteProfile::continent_mix order.
enum class Continent : std::uint8_t {
  kNorthAmerica = 0,
  kEurope = 1,
  kAsia = 2,
  kSouthAmerica = 3,
};
inline constexpr int kNumContinents = 4;
const char* ToString(Continent c);

// Continent inferred from a UTC offset (used by the CDN simulator to route
// requests to the nearest data center — the log schema carries only the
// timezone, just like an anonymized IP would only geolocate coarsely).
Continent ContinentFromTzQuarterHours(std::int8_t tz_quarter_hours);

struct UserInfo {
  std::uint64_t user_id = 0;
  trace::DeviceType device = trace::DeviceType::kDesktop;
  std::uint16_t user_agent_id = 0;
  Continent continent = Continent::kNorthAmerica;
  std::int8_t tz_offset_quarter_hours = 0;
  // Relative propensity to start sessions (heavy-tailed).
  double activity = 1.0;
  bool incognito = false;
};

// Users per lazy population shard (~1 MB of UserInfo per shard).
inline constexpr std::size_t kUserShardItems = 32768;

class UserPopulation {
 public:
  // All randomness comes from `rng`; the stream is consumed identically
  // whether the table stays resident (fits its half of the profile's
  // synth-table budget) or switches to lazily replayed RNG-snapshot shards.
  UserPopulation(const SiteProfile& profile, util::Rng& rng);

  std::size_t size() const { return store_.size(); }
  // By value: lazy shards are evictable, so references into them cannot be
  // handed out. `const auto& u = users.user(i)` stays valid through
  // lifetime extension.
  UserInfo user(std::size_t i) const { return store_.Get(i); }

  // Streams every user in index order as fn(index, const UserInfo&); peak
  // extra memory is one shard. This replaces handing out the whole table
  // (`users()`), which a lazy population cannot do.
  template <typename Fn>
  void ForEachUser(Fn&& fn) const {
    store_.ForEach(fn);
  }

  // True when the table exceeded its budget and went lazy (scale tests).
  bool lazy() const { return store_.lazy(); }
  const ShardStore<UserInfo>& store() const { return store_; }

 private:
  UserInfo GenerateUser(util::Rng& rng) const;

  SiteProfile profile_;  // kept for lazy replay
  ShardStore<UserInfo> store_;
};

}  // namespace atlas::synth
