#include "analysis/devices.h"

#include <gtest/gtest.h>

#include "analysis_fixtures.h"
#include "scenario_fixtures.h"

namespace atlas::analysis {
namespace {

using testing::MakeRecord;
using testing::RecordSpec;

std::uint16_t UaIdFor(trace::DeviceType device) {
  return trace::UaBank::Instance().IdsForDevice(device).front();
}

TEST(DeviceCompositionTest, SharesOverUniqueUsers) {
  trace::TraceBuffer buf;
  const auto desktop = UaIdFor(trace::DeviceType::kDesktop);
  const auto android = UaIdFor(trace::DeviceType::kAndroid);
  // User 1 (desktop) makes many requests; users 2 and 3 (android) one each.
  for (int i = 0; i < 10; ++i) {
    buf.Add(MakeRecord({.t = i, .user = 1, .ua = desktop}));
  }
  buf.Add(MakeRecord({.t = 100, .user = 2, .ua = android}));
  buf.Add(MakeRecord({.t = 101, .user = 3, .ua = android}));
  const auto result = ComputeDeviceComposition(buf, "X");
  EXPECT_EQ(result.unique_users, 3u);
  // User shares count users, not requests: 1/3 desktop, 2/3 android.
  EXPECT_NEAR(result.user_share[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(result.user_share[1], 2.0 / 3.0, 1e-9);
  // Request shares weight by traffic: 10/12 desktop.
  EXPECT_NEAR(result.request_share[0], 10.0 / 12.0, 1e-9);
  EXPECT_NEAR(result.MobileShare(), 2.0 / 3.0, 1e-9);
}

TEST(DeviceCompositionTest, OsAndBrowserShares) {
  trace::TraceBuffer buf;
  buf.Add(MakeRecord({.user = 1, .ua = UaIdFor(trace::DeviceType::kIos)}));
  const auto result = ComputeDeviceComposition(buf, "X");
  EXPECT_NEAR(result.os_share[static_cast<std::size_t>(trace::OsFamily::kIosOs)],
              1.0, 1e-9);
}

TEST(DeviceCompositionTest, EmptyTrace) {
  const auto result = ComputeDeviceComposition(trace::TraceBuffer{}, "E");
  EXPECT_EQ(result.unique_users, 0u);
  EXPECT_DOUBLE_EQ(result.MobileShare(), 1.0);  // degenerate but defined
}

// Closed loop (Fig. 4): generated device mixes are recovered through UA
// re-parsing, and the cross-site ordering holds (S-1 most mobile, V-2 most
// desktop).
TEST(DeviceCompositionClosedLoopTest, RecoversProfileMixes) {
  cdn::SimulatorConfig config;
  const auto s1 =
      testutil::SimulateSite(synth::SiteProfile::S1(0.05), 0, config, 3);
  const auto v2 =
      testutil::SimulateSite(synth::SiteProfile::V2(0.02), 1, config, 3);
  const auto ds1 = ComputeDeviceComposition(s1.trace, "S-1");
  const auto dv2 = ComputeDeviceComposition(v2.trace, "V-2");
  // Paper: >1/3 of S-1 users are non-desktop; >95% of V-2 users desktop.
  EXPECT_GT(ds1.MobileShare(), 1.0 / 3.0 - 0.05);
  EXPECT_GT(dv2.user_share[0], 0.92);
  EXPECT_GT(ds1.MobileShare(), dv2.MobileShare());
}

}  // namespace
}  // namespace atlas::analysis
