#include "synth/user_model.h"

#include <gtest/gtest.h>

#include <array>
#include <set>

namespace atlas::synth {
namespace {

UserPopulation MakeUsers(const SiteProfile& profile, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  return UserPopulation(profile, rng);
}

TEST(UserPopulationTest, SizeMatchesProfile) {
  const auto profile = SiteProfile::S1(0.05);
  EXPECT_EQ(MakeUsers(profile).size(), profile.num_users);
}

TEST(UserPopulationTest, UserIdsUnique) {
  const auto users = MakeUsers(SiteProfile::P1(0.05));
  std::set<std::uint64_t> ids;
  users.ForEachUser(
      [&](std::size_t, const UserInfo& u) { ids.insert(u.user_id); });
  EXPECT_EQ(ids.size(), users.size());
}

TEST(UserPopulationTest, DeviceSharesMatchProfile) {
  const auto profile = SiteProfile::S1(0.5);  // 30000 users
  const auto users = MakeUsers(profile);
  std::array<std::size_t, trace::kNumDeviceTypes> counts{};
  users.ForEachUser([&](std::size_t, const UserInfo& u) {
    ++counts[static_cast<std::size_t>(u.device)];
  });
  for (std::size_t d = 0; d < counts.size(); ++d) {
    EXPECT_NEAR(static_cast<double>(counts[d]) /
                    static_cast<double>(users.size()),
                profile.device_mix[d], 0.02);
  }
}

TEST(UserPopulationTest, UaStringsMatchAssignedDevice) {
  const auto users = MakeUsers(SiteProfile::S1(0.02));
  const auto& bank = trace::UaBank::Instance();
  users.ForEachUser([&](std::size_t, const UserInfo& u) {
    EXPECT_EQ(trace::ParseUserAgent(bank.String(u.user_agent_id)).device,
              u.device);
  });
}

TEST(UserPopulationTest, TimezonesConsistentWithContinent) {
  const auto users = MakeUsers(SiteProfile::V1(0.02));
  users.ForEachUser([](std::size_t, const UserInfo& u) {
    const double h = u.tz_offset_quarter_hours / 4.0;
    switch (u.continent) {
      case Continent::kNorthAmerica:
        EXPECT_GE(h, -8.0);
        EXPECT_LE(h, -5.0);
        break;
      case Continent::kEurope:
        EXPECT_GE(h, 0.0);
        EXPECT_LE(h, 3.0);
        break;
      case Continent::kAsia:
        EXPECT_GE(h, 5.5);
        EXPECT_LE(h, 9.0);
        break;
      case Continent::kSouthAmerica:
        EXPECT_GE(h, -5.0);
        EXPECT_LE(h, -3.0);
        break;
    }
  });
}

TEST(UserPopulationTest, IncognitoRateRespected) {
  SiteProfile profile = SiteProfile::V1(0.2);
  profile.incognito_rate = 0.75;
  const auto users = MakeUsers(profile);
  double incognito = 0;
  users.ForEachUser([&](std::size_t, const UserInfo& u) {
    incognito += u.incognito ? 1 : 0;
  });
  EXPECT_NEAR(incognito / static_cast<double>(users.size()), 0.75, 0.02);
}

TEST(UserPopulationTest, ActivityIsHeavyTailed) {
  const auto users = MakeUsers(SiteProfile::V1(0.1));
  double max_activity = 0, sum = 0;
  users.ForEachUser([&](std::size_t, const UserInfo& u) {
    EXPECT_GE(u.activity, 1.0);  // Pareto scale 1
    max_activity = std::max(max_activity, u.activity);
    sum += u.activity;
  });
  // The heaviest user dwarfs the mean.
  EXPECT_GT(max_activity, 10.0 * sum / static_cast<double>(users.size()));
}

TEST(ContinentTest, FromTzRoundTrip) {
  // Every generated user's tz maps back to their continent.
  const auto users = MakeUsers(SiteProfile::P2(0.05), 7);
  users.ForEachUser([](std::size_t, const UserInfo& u) {
    EXPECT_EQ(ContinentFromTzQuarterHours(u.tz_offset_quarter_hours),
              u.continent)
        << "offset " << static_cast<int>(u.tz_offset_quarter_hours);
  });
}

TEST(ContinentTest, Names) {
  EXPECT_STREQ(ToString(Continent::kAsia), "Asia");
  EXPECT_STREQ(ToString(Continent::kSouthAmerica), "South America");
}

}  // namespace
}  // namespace atlas::synth
